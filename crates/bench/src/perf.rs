//! The `repro --bench` perf harness: times the repo's numeric hot paths
//! and emits the machine-readable `BENCH_grid.json` baseline.
//!
//! Built on the vendored criterion shim ([`criterion::Criterion`]), the
//! harness times three kernel families:
//!
//! * **grid** — the three solvers behind [`np_grid::SolvePlan`] (the
//!   reference SOR, Jacobi-PCG and MGCG), across bump-cell mesh sizes from
//!   33 to 1025 nodes per side (each kernel capped at the largest size
//!   where it finishes in reasonable time — SOR is O(n⁴) and stops at
//!   129);
//! * **thermal** — the electro-thermal fixed point of
//!   [`np_thermal::package::Package::electro_thermal_temperature`];
//! * **sta** — [`np_circuit::sta::TimingContext::analyze`] over a
//!   generated netlist, and a scenario spec's netlist leg
//!   (`circuit.spec_leg`: generate, critical delay, power).
//!
//! A separate algorithmic-comparison block solves the largest mesh once
//! per CG-family solver under a telemetry collector and records PCG
//! iterations against MGCG fine-grid-sweep equivalents (`mg_vs_pcg` in
//! the JSON) — a work measure independent of wall-clock noise.
//!
//! The report schema (`nanopower-bench/v3`) is documented in
//! `BENCHMARKS.md`; its *shape* is deterministic (same keys, same kernel
//! entries in the same order for a given configuration) while the timing
//! values vary run to run.

use criterion::{black_box, Criterion};
use np_circuit::cell::VthClass;
use np_circuit::generate::{generate_netlist, NetlistSpec};
use np_circuit::incremental::IncrementalSta;
use np_circuit::netlist::{GateId, Netlist};
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
use std::time::Instant;

/// Mesh sizes (nodes per side) of the full grid sweep. Individual
/// kernels cap out earlier (see the gates in [`run`]); the tail sizes
/// belong to the CG/multigrid families.
pub const MESH_SIZES: [usize; 6] = [33, 65, 129, 257, 513, 1025];

/// Configuration for one harness run.
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchOptions {
    /// Restrict the grid sweep to the smallest mesh and shrink sample
    /// counts — the CI smoke configuration.
    pub quick: bool,
}

/// One timed kernel in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Kernel identifier, e.g. `grid.mgcg.seq`.
    pub name: String,
    /// Mesh nodes per side for grid kernels; `0` for mesh-independent
    /// kernels (thermal, STA).
    pub mesh: usize,
    /// Threads the kernel ran with: the scoring fan-out for
    /// `opt.parallel.round`, 1 for every other (sequential) kernel.
    pub shards: usize,
    /// Mean wall-clock per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Timed iterations behind the mean.
    pub iterations: u64,
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

/// A completed harness run, ready to serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The thread budget: the optimizer round's scoring fan-out.
    pub shards: usize,
    /// The machine's available parallelism when the run started.
    pub ncpu: usize,
    /// The host operating system (`std::env::consts::OS`) — a single-cpu
    /// or foreign-OS baseline is not comparable to the committed one.
    pub os: &'static str,
    /// The host CPU architecture (`std::env::consts::ARCH`).
    pub arch: &'static str,
    /// Whether this was a `--bench-quick` run.
    pub quick: bool,
    /// Mesh sizes the grid kernels swept.
    pub mesh_sizes: Vec<usize>,
    /// The MGCG-vs-PCG work comparison, if the grid sweep ran.
    pub mg_vs_pcg: Option<MgComparison>,
    /// Every timed kernel, in sweep order.
    pub kernels: Vec<KernelResult>,
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

/// Reads one summed counter out of a collector summary.
fn counter_of(summary: &np_telemetry::Summary, name: &str) -> u64 {
    summary
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
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
    (elapsed, counter_of(&collector.summary(), counter))
}

/// Runs the full harness and collects the report.
///
/// Progress lines print to stdout as each kernel completes (the shim's
/// behavior); the structured result carries the same numbers.
pub fn run(opts: BenchOptions) -> BenchReport {
    let ncpu = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let shards = thread_budget();
    let mesh_sizes: Vec<usize> = if opts.quick {
        vec![MESH_SIZES[0]]
    } else {
        MESH_SIZES.to_vec()
    };
    let mut criterion = Criterion::default();
    let mut kernels = Vec::new();
    // Criterion records consumed into `kernels` so far. Kept separate
    // from `kernels.len()` because the mg-vs-pcg comparison pushes
    // kernel rows that have no criterion record behind them — skipping
    // by `kernels.len()` would then silently drop later records.
    let mut consumed = 0usize;

    for &n in &mesh_sizes {
        let samples = match n {
            _ if opts.quick => 3,
            0..=129 => 7,
            257 => 5,
            _ => 3,
        };
        let m = bench_mesh(n);
        let mut group = criterion.benchmark_group(format!("grid/{n}"));
        group.sample_size(samples);
        // Per-kernel size gates: SOR relaxation is O(n⁴) (~3 s at 129
        // already) and Jacobi-PCG O(n³) — each stops at the largest size
        // it can afford. The 1025 tail is timed once per CG-family
        // solver in the comparison block below instead of through
        // criterion.
        if n <= 129 {
            group.bench_function("grid.sor.seq", |b| b.iter(|| black_box(&m).solve()));
        }
        if n <= 513 {
            group.bench_function("grid.pcg.seq", |b| b.iter(|| solve_pcg(black_box(&m))));
            group.bench_function("grid.mgcg.seq", |b| b.iter(|| solve_mgcg(black_box(&m))));
        }
        group.finish();
        for r in criterion.records().iter().skip(consumed) {
            consumed += 1;
            kernels.push(KernelResult {
                name: r.name.clone(),
                mesh: n,
                shards: 1,
                mean_ns: r.mean_ns,
                iterations: r.iterations,
            });
        }
    }

    // The algorithmic comparison at the largest mesh: one timed solve
    // per CG-family solver under its own collector (MGCG's coarse-level
    // solves also emit PCG counters, so they must not share one),
    // recording work in counters rather than repeated wall-clock samples.
    let mg_vs_pcg = {
        let n = *mesh_sizes.iter().max().unwrap_or(&MESH_SIZES[0]);
        let m = bench_mesh(n);
        let (pcg_ns, pcg_iters) = timed_counted("grid.pcg.iterations", || {
            let _ = solve_pcg(&m);
        });
        let (mgcg_ns, mgcg_sweeps) = timed_counted("grid.mgcg.sweeps_equivalent", || {
            let _ = solve_mgcg(&m);
        });
        if !opts.quick && n > 513 {
            // The 1025 tail is too expensive for repeated criterion
            // samples; record the single timed solves as kernels so the
            // scaling table has wall-clock at every size.
            for (name, ns) in [("grid.pcg.seq", pcg_ns), ("grid.mgcg.seq", mgcg_ns)] {
                kernels.push(KernelResult {
                    name: name.to_string(),
                    mesh: n,
                    shards: 1,
                    mean_ns: ns,
                    iterations: 1,
                });
            }
        }
        Some(MgComparison {
            mesh: n,
            pcg_iterations: pcg_iters,
            mgcg_sweeps_equivalent: mgcg_sweeps,
            fine_sweep_ratio: pcg_iters as f64 / mgcg_sweeps.max(1) as f64,
        })
    };

    {
        let mut group = criterion.benchmark_group("models");
        group.sample_size(if opts.quick { 3 } else { 7 });
        let pkg = Package::new(ThermalResistance(0.8), Celsius(45.0));
        let dev = Mosfet::for_node(TechNode::N70);
        if let Ok(dev) = dev {
            group.bench_function("thermal.fixed_point", |b| {
                b.iter(|| {
                    pkg.electro_thermal_temperature(
                        black_box(Watts(60.0)),
                        &dev,
                        Microns(2.0e6),
                        Volts(0.9),
                    )
                })
            });
        }
        let netlist = generate_netlist(&NetlistSpec::small(1));
        if let Ok(ctx) = TimingContext::for_node(TechNode::N100) {
            group.bench_function("sta.analyze", |b| {
                b.iter(|| ctx.analyze(black_box(&netlist)))
            });
            // A spec's netlist leg, as `ScenarioSpec::evaluate_in` runs it.
            let cells = if opts.quick { 5_000 } else { 50_000 };
            group.bench_function("circuit.spec_leg", |b| {
                b.iter(|| {
                    let netlist = generate_netlist(&NetlistSpec::large(black_box(1), cells));
                    let critical = ctx.critical_delay(&netlist);
                    netlist_power(&netlist, &ctx, 0.1, Hertz(1.0 / critical.0))
                })
            });
        }
        group.finish();
    }

    // The optimizer kernels: full vs incremental STA and one parallel
    // optimization round on a streamed netlist, so the CI smoke report
    // carries the `opt.*` family alongside the grid kernels. The
    // dedicated cell-count sweep lives in [`run_opt`].
    {
        let cells = if opts.quick { 2_000 } else { 20_000 };
        let mut group = criterion.benchmark_group("opt");
        group.sample_size(3);
        let mut netlist = generate_netlist(&NetlistSpec::large(7, cells));
        if let Ok(ctx) = TimingContext::for_node(TechNode::N100) {
            if let Ok(baseline) = ctx.analyze(&netlist) {
                let ctx = ctx.with_clock(baseline.critical_delay() * 1.25);
                group.bench_function("opt.sta.full", |b| {
                    b.iter(|| ctx.analyze(black_box(&netlist)))
                });
                let probe = GateId::from_index(cells / 2);
                let mut sta = IncrementalSta::new(&ctx, &netlist);
                group.bench_function("opt.sta.incremental", |b| {
                    b.iter(|| {
                        // Alternate the flip so every probe moves real
                        // arrivals through the fan-out cone.
                        let flipped = match netlist.vth(probe) {
                            VthClass::Low => VthClass::High,
                            VthClass::High => VthClass::Low,
                        };
                        netlist.gate_mut(probe).set_vth(flipped);
                        sta.reevaluate(black_box(&netlist), probe)
                    })
                });
                let round = np_opt::ParallelOptions {
                    max_rounds: 1,
                    ..np_opt::ParallelOptions::default()
                };
                group.bench_function("opt.parallel.round", |b| {
                    b.iter(|| {
                        // The round mutates assignments; each iteration
                        // optimizes a fresh copy (the clone is a few
                        // percent of the round cost).
                        let mut fresh = netlist.clone();
                        np_opt::optimize_parallel(&mut fresh, &ctx, black_box(&round))
                    })
                });
            }
        }
        group.finish();
    }
    for r in criterion.records().iter().skip(consumed) {
        // Mesh-independent kernels; the parallel optimizer round is the
        // one that fans out over the thread budget.
        let kernel_shards = if r.name == "opt.parallel.round" {
            shards
        } else {
            1
        };
        kernels.push(KernelResult {
            name: r.name.clone(),
            mesh: 0,
            shards: kernel_shards,
            mean_ns: r.mean_ns,
            iterations: r.iterations,
        });
    }

    BenchReport {
        shards,
        ncpu,
        os: std::env::consts::OS,
        arch: std::env::consts::ARCH,
        quick: opts.quick,
        mesh_sizes,
        mg_vs_pcg,
        kernels,
    }
}

impl BenchReport {
    /// Serializes the report as `nanopower-bench/v3` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"nanopower-bench/v3\",\n");
        out.push_str(&format!("  \"ncpu\": {},\n", self.ncpu));
        out.push_str(&format!("  \"os\": \"{}\",\n", self.os));
        out.push_str(&format!("  \"arch\": \"{}\",\n", self.arch));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        let sizes: Vec<String> = self.mesh_sizes.iter().map(ToString::to_string).collect();
        out.push_str(&format!("  \"mesh_sizes\": [{}],\n", sizes.join(", ")));
        if let Some(c) = &self.mg_vs_pcg {
            out.push_str(&format!(
                "  \"mg_vs_pcg\": {{\"mesh\": {}, \"pcg_iterations\": {}, \"mgcg_sweeps_equivalent\": {}, \"fine_sweep_ratio\": {:.2}}},\n",
                c.mesh,
                c.pcg_iterations,
                c.mgcg_sweeps_equivalent,
                c.fine_sweep_ratio
            ));
        }
        out.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"mesh\": {}, \"shards\": {}, \"mean_ns\": {:.1}, \"iterations\": {}}}{}\n",
                k.name,
                k.mesh,
                k.shards,
                k.mean_ns,
                k.iterations,
                if i + 1 < self.kernels.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Cell counts of the full optimizer scaling sweep ([`run_opt`]).
pub const OPT_SWEEP_CELLS: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Cell counts of the quick (CI smoke) optimizer sweep.
pub const OPT_SWEEP_CELLS_QUICK: [usize; 2] = [1_000, 5_000];

/// Incremental-STA probes per sweep size (each probe flips one gate's
/// Vth and re-propagates its fan-out cone).
const OPT_PROBES: usize = 200;

/// One cell-count row of the optimizer scaling sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OptScalingRow {
    /// Netlist size in cells.
    pub cells: usize,
    /// Streamed generation wall-clock, nanoseconds.
    pub generate_ns: f64,
    /// One full STA pass, nanoseconds.
    pub full_sta_ns: f64,
    /// Building the incremental view ([`IncrementalSta::new`]),
    /// nanoseconds.
    pub inc_build_ns: f64,
    /// Mean single-gate incremental re-propagation, nanoseconds.
    pub probe_ns: f64,
    /// Mean fan-out-cone size the probes visited, gates.
    pub probe_cone: f64,
    /// `full_sta_ns / probe_ns` — how many times cheaper one incremental
    /// probe is than a full re-analysis.
    pub inc_speedup: f64,
    /// One parallel optimization round, nanoseconds.
    pub round_ns: f64,
    /// Moves the round accepted.
    pub round_accepted: usize,
    /// Moves the round proposed.
    pub round_proposed: usize,
    /// Assignment digest after the round — deterministic per
    /// (seed, cells), independent of host and worker count.
    pub digest: u64,
}

/// The optimizer scaling sweep, serialized to `BENCH_opt.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct OptBenchReport {
    /// The machine's available parallelism when the run started.
    pub ncpu: usize,
    /// Scoring workers the optimizer rounds used (the thread budget).
    pub workers: usize,
    /// The host operating system.
    pub os: &'static str,
    /// The host CPU architecture.
    pub arch: &'static str,
    /// Whether this was a quick (CI smoke) sweep.
    pub quick: bool,
    /// One row per cell count, ascending.
    pub rows: Vec<OptScalingRow>,
}

/// Times one closure once, returning (elapsed ns, result).
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_nanos() as f64, out)
}

/// Runs the optimizer scaling sweep: for each cell count, streamed
/// generation, full STA, incremental-view build, 200 (`OPT_PROBES`)
/// single-gate re-propagations, and one parallel optimization round.
///
/// # Errors
///
/// Propagates circuit-model and optimizer errors.
pub fn run_opt(opts: BenchOptions) -> Result<OptBenchReport, nanopower::Error> {
    let ncpu = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = thread_budget();
    let cells_axis: Vec<usize> = if opts.quick {
        OPT_SWEEP_CELLS_QUICK.to_vec()
    } else {
        OPT_SWEEP_CELLS.to_vec()
    };
    let mut rows = Vec::new();
    for &cells in &cells_axis {
        println!("opt sweep: {cells} cells...");
        let spec = NetlistSpec::large(7, cells);
        let (generate_ns, mut netlist) = timed(|| generate_netlist(&spec));
        let ctx = TimingContext::for_node(TechNode::N100).map_err(np_opt::OptError::from)?;
        let (full_sta_ns, baseline) = timed(|| ctx.analyze(&netlist));
        let baseline = baseline.map_err(np_opt::OptError::from)?;
        let ctx = ctx.with_clock(baseline.critical_delay() * 1.25);
        let (inc_build_ns, mut sta) = timed(|| IncrementalSta::new(&ctx, &netlist));
        let (probe_ns, probe_cone) = probe_mean(&mut netlist, &mut sta, cells)?;
        let options = np_opt::ParallelOptions {
            max_rounds: 1,
            ..np_opt::ParallelOptions::default()
        };
        let (round_ns, round) = timed(|| np_opt::optimize_parallel(&mut netlist, &ctx, &options));
        let round = round?;
        rows.push(OptScalingRow {
            cells,
            generate_ns,
            full_sta_ns,
            inc_build_ns,
            probe_ns,
            probe_cone,
            inc_speedup: full_sta_ns / probe_ns.max(1.0),
            round_ns,
            round_accepted: round.rounds.first().map_or(0, |r| r.accepted),
            round_proposed: round.rounds.first().map_or(0, |r| r.proposed),
            digest: np_opt::assignment_digest(&netlist),
        });
    }
    Ok(OptBenchReport {
        ncpu,
        workers,
        os: std::env::consts::OS,
        arch: std::env::consts::ARCH,
        quick: opts.quick,
        rows,
    })
}

/// Mean (ns, cone gates) over [`OPT_PROBES`] single-gate Vth flips
/// spread evenly across the netlist.
fn probe_mean(
    netlist: &mut Netlist,
    sta: &mut IncrementalSta<'_>,
    cells: usize,
) -> Result<(f64, f64), nanopower::Error> {
    let stride = (cells / OPT_PROBES).max(1);
    let mut total_ns = 0.0;
    let mut total_cone = 0usize;
    let mut probes = 0usize;
    for i in (0..cells).step_by(stride).take(OPT_PROBES) {
        let id = GateId::from_index(i);
        let flipped = match netlist.vth(id) {
            VthClass::Low => VthClass::High,
            VthClass::High => VthClass::Low,
        };
        netlist.gate_mut(id).set_vth(flipped);
        let start = Instant::now();
        let cone = sta
            .reevaluate(netlist, id)
            .map_err(np_opt::OptError::from)?;
        total_ns += start.elapsed().as_nanos() as f64;
        total_cone += cone.visited;
        probes += 1;
        // Flip back so the sweep's optimizer round starts from the
        // generated assignment.
        let back = match netlist.vth(id) {
            VthClass::Low => VthClass::High,
            VthClass::High => VthClass::Low,
        };
        netlist.gate_mut(id).set_vth(back);
        sta.reevaluate(netlist, id)
            .map_err(np_opt::OptError::from)?;
    }
    let n = probes.max(1) as f64;
    Ok((total_ns / n, total_cone as f64 / n))
}

impl OptBenchReport {
    /// Serializes the sweep as `nanopower-opt-bench/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"nanopower-opt-bench/v1\",\n");
        out.push_str(&format!("  \"ncpu\": {},\n", self.ncpu));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"os\": \"{}\",\n", self.os));
        out.push_str(&format!("  \"arch\": \"{}\",\n", self.arch));
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"cells\": {}, \"generate_ns\": {:.1}, \"full_sta_ns\": {:.1}, \
                 \"inc_build_ns\": {:.1}, \"probe_ns\": {:.1}, \"probe_cone\": {:.1}, \
                 \"inc_speedup\": {:.1}, \"round_ns\": {:.1}, \"round_accepted\": {}, \
                 \"round_proposed\": {}, \"digest\": \"fnv1a:{:016x}\"}}{}\n",
                r.cells,
                r.generate_ns,
                r.full_sta_ns,
                r.inc_build_ns,
                r.probe_ns,
                r.probe_cone,
                r.inc_speedup,
                r.round_ns,
                r.round_accepted,
                r.round_proposed,
                r.digest,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_times_every_kernel_and_serializes() {
        let report = run(BenchOptions { quick: true });
        let mean_ns = |name: &str, mesh: usize| {
            report
                .kernels
                .iter()
                .find(|k| k.name == name && k.mesh == mesh)
                .map(|k| k.mean_ns)
        };
        assert_eq!(report.mesh_sizes, vec![33]);
        for name in ["grid.sor.seq", "grid.pcg.seq", "grid.mgcg.seq"] {
            assert!(
                mean_ns(name, 33).is_some_and(|ns| ns > 0.0),
                "{name} missing or unmeasured"
            );
        }
        for name in [
            "thermal.fixed_point",
            "sta.analyze",
            "circuit.spec_leg",
            "opt.sta.full",
            "opt.sta.incremental",
            "opt.parallel.round",
        ] {
            assert!(
                mean_ns(name, 0).is_some_and(|ns| ns > 0.0),
                "{name} missing or unmeasured"
            );
        }
        // The optimizer round records its real scoring fan-out.
        assert!(report
            .kernels
            .iter()
            .any(|k| k.name == "opt.parallel.round" && k.shards == report.shards));
        // Every grid kernel runs on one thread.
        assert!(report
            .kernels
            .iter()
            .filter(|k| k.name.starts_with("grid."))
            .all(|k| k.shards == 1));
        // The comparison block proves the acceptance ratio even in
        // quick mode (the margin grows with mesh size; 33 is its floor).
        let cmp = report.mg_vs_pcg.expect("comparison must run");
        assert_eq!(cmp.mesh, 33);
        assert!(cmp.pcg_iterations > 0);
        assert!(cmp.mgcg_sweeps_equivalent > 0);
        assert!(cmp.fine_sweep_ratio > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"nanopower-bench/v3\""));
        assert!(!json.contains("\"speedup\""));
        assert!(!json.contains("\"shard_counts\""));
        assert!(json.contains("\"mg_vs_pcg\""));
        assert!(!json.contains("\"grid.mgcg.par\""));
        assert!(json.contains("\"quick\": true"));
        // Host metadata pins where the numbers came from.
        assert_eq!(report.os, std::env::consts::OS);
        assert_eq!(report.arch, std::env::consts::ARCH);
        assert!(report.ncpu >= 1);
        assert!(json.contains(&format!("\"os\": \"{}\"", std::env::consts::OS)));
        assert!(json.contains(&format!("\"arch\": \"{}\"", std::env::consts::ARCH)));
    }

    #[test]
    fn quick_opt_sweep_reports_incremental_speedup() {
        let report = run_opt(BenchOptions { quick: true }).unwrap();
        assert_eq!(report.rows.len(), OPT_SWEEP_CELLS_QUICK.len());
        for r in &report.rows {
            assert!(r.generate_ns > 0.0 && r.full_sta_ns > 0.0, "{r:?}");
            assert!(r.probe_cone >= 1.0, "{r:?}");
            assert!(
                r.inc_speedup > 1.0,
                "one probe must beat a full re-analysis: {r:?}"
            );
            assert!(r.round_accepted > 0, "{r:?}");
            // The touched cone is a sliver of the netlist.
            assert!(r.probe_cone < r.cells as f64 / 4.0, "{r:?}");
        }
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"nanopower-opt-bench/v1\""));
        assert!(json.contains("\"inc_speedup\""));
        assert!(json.contains("\"digest\": \"fnv1a:"));
        assert!(json.contains("\"quick\": true"));
        // Determinism: the post-round digest is a pure function of
        // (seed, cells) — rerunning one size must reproduce it.
        let again = run_opt(BenchOptions { quick: true }).unwrap();
        assert_eq!(report.rows[0].digest, again.rows[0].digest);
    }
}
