//! The `repro --bench` kernel benchmark: times the repo's numeric hot
//! paths and writes the `BENCH_kernels.json` report.
//!
//! Every timed row goes through one sampler (`sample`): one untimed
//! warm-up call, then `n` individually timed calls, summarized as median,
//! minimum and median absolute deviation. The rows cover three families:
//!
//! * **grid** — the three solvers behind [`np_grid::SolvePlan`] (the
//!   reference SOR, Jacobi-PCG and MGCG), across bump-cell mesh sizes from
//!   33 to 1025 nodes per side (each kernel capped at the largest size
//!   where it finishes in reasonable time — SOR is O(n⁴) and stops at
//!   129);
//! * **models** — the electro-thermal fixed point of
//!   [`np_thermal::package::Package::electro_thermal_temperature`], full
//!   STA over a small netlist, and a scenario spec's netlist leg
//!   (`circuit.spec_leg`: generate, critical delay, power);
//! * **optimizer sweep** — per cell count (10k/100k/10⁶): streamed
//!   generation, full STA, the incremental-STA build, 200 single-gate
//!   incremental probes, and one parallel optimization round.
//!
//! Two blocks record work counts instead of wall-clock, which do not
//! vary from run to run or host to host: `mg_vs_pcg` (PCG iterations
//! against MGCG fine-grid-sweep equivalents at the largest mesh) and
//! `opt_sweep` (per cell count: probe cone, round moves, assignment
//! digest).
//!
//! The report schema (`nanopower-bench/v4`) is documented in
//! `BENCHMARKS.md`; its *shape* is deterministic (same keys, same rows in
//! the same order for a given configuration) while the timings vary.

use np_circuit::cell::VthClass;
use np_circuit::generate::{generate_netlist, NetlistSpec};
use np_circuit::incremental::IncrementalSta;
use np_circuit::netlist::GateId;
use np_circuit::power::netlist_power;
use np_circuit::sta::TimingContext;
use np_device::Mosfet;
use np_grid::cg::solve_pcg;
use np_grid::multigrid::solve_mgcg;
use np_grid::solver::MeshProblem;
use np_opt::parallel::thread_budget;
use np_roadmap::TechNode;
use np_thermal::package::Package;
use np_units::{Celsius, Hertz, Microns, ThermalResistance, Volts, Watts};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mesh sizes (nodes per side) of the full grid sweep. Individual
/// kernels cap out earlier (see the gates in [`run`]); the tail sizes
/// belong to the CG/multigrid families.
const MESH_SIZES: [usize; 6] = [33, 65, 129, 257, 513, 1025];

/// Cell counts of the full optimizer sweep.
const OPT_SWEEP_CELLS: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Cell counts of the quick (CI smoke) optimizer sweep.
const OPT_SWEEP_CELLS_QUICK: [usize; 2] = [1_000, 5_000];

/// Incremental-STA probes per sweep size (each probe flips one gate's
/// Vth and re-propagates its fan-out cone); they are the samples of the
/// `sta.incremental.probe` row.
const OPT_PROBES: usize = 200;

/// Configuration for one harness run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchOptions {
    /// Restrict the grid sweep to the smallest mesh, the optimizer sweep
    /// to 1k/5k cells, and every row to 3 samples — the CI smoke
    /// configuration.
    pub quick: bool,
}

/// One timed function at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Function identifier, e.g. `grid.mgcg.seq`; one name per function
    /// across sizes.
    pub name: &'static str,
    /// Mesh nodes per side for grid rows, cells for netlist rows, `0`
    /// for the thermal fixed point.
    pub size: usize,
    /// Timed calls behind the statistics.
    pub samples: usize,
    /// Median wall-clock per call, nanoseconds.
    pub median_ns: f64,
    /// Fastest call, nanoseconds.
    pub min_ns: f64,
    /// Median absolute deviation from `median_ns`, nanoseconds.
    pub mad_ns: f64,
}

/// The algorithmic MGCG-vs-PCG comparison at the largest mesh: solver
/// work measured in iteration/sweep counters, not wall-clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MgComparison {
    /// Mesh nodes per side the comparison solved.
    pub mesh: usize,
    /// Jacobi-PCG iterations to its 1e-12 tolerance.
    pub pcg_iterations: u64,
    /// MGCG fine-grid-sweep equivalents.
    pub mgcg_sweeps_equivalent: u64,
    /// `pcg_iterations / mgcg_sweeps_equivalent` (each PCG iteration
    /// costs about one fine-grid sweep).
    pub fine_sweep_ratio: f64,
}

/// The work counts of one optimizer sweep size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCounts {
    /// Netlist size in cells.
    pub cells: usize,
    /// Mean fan-out-cone size the incremental probes visited, gates.
    pub probe_cone: f64,
    /// Moves the optimization round accepted.
    pub round_accepted: usize,
    /// Moves the optimization round proposed.
    pub round_proposed: usize,
    /// Assignment digest after the round — deterministic per
    /// (seed, cells), independent of host and worker count.
    pub digest: u64,
}

/// A completed harness run, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The machine's available parallelism when the run started.
    pub ncpu: usize,
    /// The host operating system (`std::env::consts::OS`) — a single-cpu
    /// or foreign-OS baseline is not comparable to the committed one.
    pub os: &'static str,
    /// The host CPU architecture (`std::env::consts::ARCH`).
    pub arch: &'static str,
    /// The optimizer round's scoring fan-out (the thread budget); every
    /// other row runs on one thread.
    pub threads: usize,
    /// Whether this was a `--bench-quick` run.
    pub quick: bool,
    /// The MGCG-vs-PCG work comparison at the largest mesh.
    pub mg_vs_pcg: MgComparison,
    /// The optimizer sweep's work counts, one entry per cell count.
    pub opt_sweep: Vec<SweepCounts>,
    /// Every timed row, in run order.
    pub rows: Vec<Row>,
}

/// Median of an ascending slice (mean of the middle two when even).
fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Summarizes timed samples (nanoseconds, at least one) as a row and
/// prints its progress line.
fn summarize(name: &'static str, size: usize, mut ns: Vec<f64>) -> Row {
    ns.sort_by(f64::total_cmp);
    let median_ns = median(&ns);
    let mut deviations: Vec<f64> = ns.iter().map(|t| (t - median_ns).abs()).collect();
    deviations.sort_by(f64::total_cmp);
    let row = Row {
        name,
        size,
        samples: ns.len(),
        median_ns,
        min_ns: ns[0],
        mad_ns: median(&deviations),
    };
    let show = |ns: f64| Duration::from_nanos(ns as u64);
    println!(
        "{name:<22} {size:>8}  median {:>10.2?}  min {:>10.2?}  mad {:>10.2?}  ({} samples)",
        show(row.median_ns),
        show(row.min_ns),
        show(row.mad_ns),
        row.samples
    );
    row
}

/// The sampler: calls `f` once untimed to warm up, then `samples` times
/// under the clock, and returns the row with the last call's output.
/// Each output is dropped outside the timed region.
fn sample<T>(
    name: &'static str,
    size: usize,
    samples: usize,
    mut f: impl FnMut() -> T,
) -> (Row, T) {
    let mut out = f();
    let mut ns = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        let next = black_box(f());
        ns.push(start.elapsed().as_nanos() as f64);
        out = next;
    }
    (summarize(name, size, ns), out)
}

/// The uniformly loaded, centre-pinned bump-cell mesh every grid kernel
/// solves (the numeric shape of the paper's Fig. 5 study).
fn bench_mesh(n: usize) -> MeshProblem {
    let mut m = MeshProblem::new(n, n, 1.0);
    m.injection = vec![1e-4; n * n];
    let centre = m.index(n / 2, n / 2);
    m.pinned[centre] = true;
    m
}

/// Times one closure once under its own telemetry collector, returning
/// (elapsed ns, requested counter).
fn timed_counted<F: FnOnce()>(counter: &str, f: F) -> (f64, u64) {
    let collector = np_telemetry::Collector::new();
    let start = Instant::now();
    {
        let _guard = np_telemetry::install(&collector);
        f();
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    let count = collector
        .summary()
        .counters
        .iter()
        .find(|(n, _)| n == counter)
        .map_or(0, |(_, v)| *v);
    (elapsed, count)
}

/// Runs the full harness and collects the report. Each row prints one
/// progress line to stdout as it completes.
///
/// # Errors
///
/// Propagates device, circuit-model and optimizer errors, and fails when
/// a sample of an optimization round ends on a different assignment
/// digest than the first.
pub fn run(opts: BenchOptions) -> Result<BenchReport, nanopower::Error> {
    let mesh_sizes: &[usize] = if opts.quick {
        &MESH_SIZES[..1]
    } else {
        &MESH_SIZES
    };
    let mut rows = Vec::new();

    for &n in mesh_sizes {
        let samples = match n {
            _ if opts.quick => 3,
            0..=129 => 7,
            257 => 5,
            _ => 3,
        };
        let m = bench_mesh(n);
        // Per-kernel size gates: SOR relaxation is O(n⁴) (~3 s at 129
        // already) and Jacobi-PCG O(n³) — each stops at the largest size
        // it can afford. The 1025 tail is timed once per CG-family
        // solver by the comparison solves below.
        if n <= 129 {
            rows.push(sample("grid.sor.seq", n, samples, || m.solve()).0);
        }
        if n <= 513 {
            rows.push(sample("grid.pcg.seq", n, samples, || solve_pcg(&m)).0);
            rows.push(sample("grid.mgcg.seq", n, samples, || solve_mgcg(&m)).0);
        }
    }

    // The algorithmic comparison at the largest mesh: one solve per
    // CG-family solver under its own collector (MGCG's coarse-level
    // solves also emit PCG counters, so they must not share one).
    let mg_vs_pcg = {
        let n = mesh_sizes[mesh_sizes.len() - 1];
        let m = bench_mesh(n);
        let (pcg_ns, pcg_iterations) = timed_counted("grid.pcg.iterations", || {
            let _ = solve_pcg(&m);
        });
        let (mgcg_ns, mgcg_sweeps_equivalent) =
            timed_counted("grid.mgcg.sweeps_equivalent", || {
                let _ = solve_mgcg(&m);
            });
        if n > 513 {
            // Too expensive to repeat: the single comparison solves are
            // the 1025 rows, so the scaling table has every size.
            rows.push(summarize("grid.pcg.seq", n, vec![pcg_ns]));
            rows.push(summarize("grid.mgcg.seq", n, vec![mgcg_ns]));
        }
        MgComparison {
            mesh: n,
            pcg_iterations,
            mgcg_sweeps_equivalent,
            fine_sweep_ratio: pcg_iterations as f64 / mgcg_sweeps_equivalent.max(1) as f64,
        }
    };

    let samples = if opts.quick { 3 } else { 7 };
    let pkg = Package::new(ThermalResistance(0.8), Celsius(45.0));
    let dev = Mosfet::for_node(TechNode::N70)?;
    rows.push(
        sample("thermal.fixed_point", 0, samples, || {
            pkg.electro_thermal_temperature(
                black_box(Watts(60.0)),
                &dev,
                Microns(2.0e6),
                Volts(0.9),
            )
        })
        .0,
    );
    let ctx = TimingContext::for_node(TechNode::N100)?;
    let small = generate_netlist(&NetlistSpec::small(1));
    rows.push(
        sample("sta.analyze", small.len(), samples, || {
            ctx.analyze(black_box(&small))
        })
        .0,
    );
    // A spec's netlist leg, as `ScenarioSpec::evaluate_in` runs it.
    let cells = if opts.quick { 5_000 } else { 50_000 };
    rows.push(
        sample("circuit.spec_leg", cells, samples, || {
            let netlist = generate_netlist(&NetlistSpec::large(black_box(1), cells));
            let critical = ctx.critical_delay(&netlist);
            netlist_power(&netlist, &ctx, 0.1, Hertz(1.0 / critical.0))
        })
        .0,
    );

    let sweep: &[usize] = if opts.quick {
        &OPT_SWEEP_CELLS_QUICK
    } else {
        &OPT_SWEEP_CELLS
    };
    let mut opt_sweep = Vec::new();
    for &cells in sweep {
        let samples = if cells < 1_000_000 { 3 } else { 1 };
        opt_sweep.push(sweep_size(cells, samples, &mut rows)?);
    }

    Ok(BenchReport {
        ncpu: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        os: std::env::consts::OS,
        arch: std::env::consts::ARCH,
        threads: thread_budget(),
        quick: opts.quick,
        mg_vs_pcg,
        opt_sweep,
        rows,
    })
}

/// One optimizer sweep size: times generation, full STA, the incremental
/// build, [`OPT_PROBES`] single-gate probes and one optimization round,
/// pushing a row each, and returns the size's work counts.
fn sweep_size(
    cells: usize,
    samples: usize,
    rows: &mut Vec<Row>,
) -> Result<SweepCounts, nanopower::Error> {
    let ctx = TimingContext::for_node(TechNode::N100)?;
    let spec = NetlistSpec::large(7, cells);
    let (row, mut netlist) = sample("circuit.generate", cells, samples, || {
        generate_netlist(&spec)
    });
    rows.push(row);
    let (row, baseline) = sample("sta.analyze", cells, samples, || ctx.analyze(&netlist));
    rows.push(row);
    let ctx = ctx.with_clock(baseline?.critical_delay() * 1.25);
    let (row, mut sta) = sample("sta.incremental.build", cells, samples, || {
        IncrementalSta::new(&ctx, &netlist)
    });
    rows.push(row);

    // Each probe flips one gate, times its re-propagation, and flips it
    // back untimed, so the round below starts from the generated
    // assignment.
    let flip = |vth| match vth {
        VthClass::Low => VthClass::High,
        VthClass::High => VthClass::Low,
    };
    let stride = (cells / OPT_PROBES).max(1);
    let mut probe_ns = Vec::with_capacity(OPT_PROBES);
    let mut cone = 0usize;
    for i in (0..cells).step_by(stride).take(OPT_PROBES) {
        let id = GateId::from_index(i);
        let flipped = flip(netlist.vth(id));
        netlist.gate_mut(id).set_vth(flipped);
        let start = Instant::now();
        let visited = sta.reevaluate(&netlist, id)?;
        probe_ns.push(start.elapsed().as_nanos() as f64);
        cone += visited.visited;
        netlist.gate_mut(id).set_vth(flip(flipped));
        sta.reevaluate(&netlist, id)?;
    }
    let probes = probe_ns.len();
    rows.push(summarize("sta.incremental.probe", cells, probe_ns));

    // Every round optimizes a fresh clone of the probed netlist (the
    // clone is timed with it) and must end on the same moves and
    // assignment as the first.
    let options = np_opt::ParallelOptions {
        max_rounds: 1,
        ..np_opt::ParallelOptions::default()
    };
    let mut outcomes = Vec::new();
    let (row, _) = sample("opt.parallel.round", cells, samples, || {
        let mut fresh = netlist.clone();
        let round = np_opt::optimize_parallel(&mut fresh, &ctx, &options);
        outcomes.push(round.map(|r| {
            let first = r.rounds.first().copied().unwrap_or_default();
            (first, np_opt::assignment_digest(&fresh))
        }));
        fresh
    });
    rows.push(row);
    let outcomes = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    let (first, digest) = outcomes[0];
    if outcomes.iter().any(|&o| o != (first, digest)) {
        let digests: Vec<u64> = outcomes.iter().map(|o| o.1).collect();
        return Err(nanopower::Error::InvalidParameter(format!(
            "opt.parallel.round at {cells} cells is not deterministic: digests {digests:016x?}"
        )));
    }
    Ok(SweepCounts {
        cells,
        probe_cone: cone as f64 / probes.max(1) as f64,
        round_accepted: first.accepted,
        round_proposed: first.proposed,
        digest,
    })
}

impl BenchReport {
    /// Serializes the report as `nanopower-bench/v4` JSON.
    pub fn to_json(&self) -> String {
        let c = &self.mg_vs_pcg;
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"nanopower-bench/v4\",\n");
        out.push_str(&format!("  \"ncpu\": {},\n", self.ncpu));
        out.push_str(&format!("  \"os\": \"{}\",\n", self.os));
        out.push_str(&format!("  \"arch\": \"{}\",\n", self.arch));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!(
            "  \"mg_vs_pcg\": {{\"mesh\": {}, \"pcg_iterations\": {}, \"mgcg_sweeps_equivalent\": {}, \"fine_sweep_ratio\": {:.2}}},\n",
            c.mesh, c.pcg_iterations, c.mgcg_sweeps_equivalent, c.fine_sweep_ratio
        ));
        let sweep: Vec<String> = self
            .opt_sweep
            .iter()
            .map(|s| {
                format!(
                    "    {{\"cells\": {}, \"probe_cone\": {:.1}, \"round_accepted\": {}, \
                     \"round_proposed\": {}, \"digest\": \"fnv1a:{:016x}\"}}",
                    s.cells, s.probe_cone, s.round_accepted, s.round_proposed, s.digest
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"opt_sweep\": [\n{}\n  ],\n",
            sweep.join(",\n")
        ));
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"name\": \"{}\", \"size\": {}, \"samples\": {}, \"median_ns\": {:.1}, \
                     \"min_ns\": {:.1}, \"mad_ns\": {:.1}}}",
                    r.name, r.size, r.samples, r.median_ns, r.min_ns, r.mad_ns
                )
            })
            .collect();
        out.push_str(&format!("  \"rows\": [\n{}\n  ]\n}}\n", rows.join(",\n")));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_times_every_kernel_and_serializes() -> Result<(), nanopower::Error> {
        let report = run(BenchOptions { quick: true })?;
        for name in [
            "grid.sor.seq",
            "grid.pcg.seq",
            "grid.mgcg.seq",
            "thermal.fixed_point",
            "sta.analyze",
            "circuit.spec_leg",
            "circuit.generate",
            "sta.incremental.build",
            "sta.incremental.probe",
            "opt.parallel.round",
        ] {
            let row = report.rows.iter().find(|r| r.name == name);
            assert!(
                row.is_some_and(|r| r.samples >= 1 && r.min_ns <= r.median_ns),
                "{name} missing or unordered: {row:?}"
            );
        }
        assert_eq!(report.mg_vs_pcg.mesh, 33);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"nanopower-bench/v4\""));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains(&format!("\"os\": \"{}\"", std::env::consts::OS)));
        // The work counts are a pure function of the configuration.
        let again = run(BenchOptions { quick: true })?;
        assert_eq!(report.mg_vs_pcg, again.mg_vs_pcg);
        assert_eq!(report.opt_sweep, again.opt_sweep);
        Ok(())
    }

    #[test]
    fn quick_opt_sweep_reports_incremental_speedup() -> Result<(), nanopower::Error> {
        let report = run(BenchOptions { quick: true })?;
        assert_eq!(
            report.opt_sweep.iter().map(|s| s.cells).collect::<Vec<_>>(),
            OPT_SWEEP_CELLS_QUICK
        );
        let median = |name: &str, size: usize| {
            report
                .rows
                .iter()
                .find(|r| r.name == name && r.size == size)
                .map_or(f64::NAN, |r| r.median_ns)
        };
        for s in &report.opt_sweep {
            let full_over_probe =
                median("sta.analyze", s.cells) / median("sta.incremental.probe", s.cells);
            assert!(
                full_over_probe > 1.0,
                "one probe must beat a full re-analysis: {s:?}"
            );
            // The touched cone is a sliver of the netlist.
            assert!(
                s.probe_cone >= 1.0 && s.probe_cone < s.cells as f64 / 4.0,
                "{s:?}"
            );
            assert!(s.round_accepted > 0, "{s:?}");
        }
        assert!(report.to_json().contains("\"digest\": \"fnv1a:"));
        // The post-round digest is a pure function of (seed, cells):
        // re-running one size alone must reproduce it.
        let alone = sweep_size(OPT_SWEEP_CELLS_QUICK[0], 1, &mut Vec::new())?;
        assert_eq!(alone, report.opt_sweep[0]);
        Ok(())
    }
}
