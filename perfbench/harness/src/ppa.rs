//! The `ppa` workload: the §3.3 parallel co-optimizer on fresh 10 000-cell
//! netlists at 100 nm, under a clock at 1.00× the unoptimized critical
//! delay, where the TNS = 0 accept-or-revert path runs.

use crate::gen::{self, SplitMix64};
use crate::out::Obj;
use crate::stats;
use crate::trace::{count_by_op, median_of, time_by_op, timed, Scope, Tracer};
use nanopower::circuit::{
    generate_netlist, IncrementalSta, Netlist, NetlistSpec, TimingContext, VthClass,
};
use nanopower::opt::{assignment_digest, optimize_parallel, ParallelOptions, ParallelResult};
use nanopower::roadmap::TechNode;
use nanopower::telemetry::{self as telemetry, Collector};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Incremental-STA probes per traced op: each flips one gate of a fixed
/// set to high Vth and back, re-timing after each flip.
pub const PROBE_GATES: usize = 64;

/// Stream tag of the probe positions.
const STREAM_PROBE: u64 = 0x960BE;

/// A fresh netlist for op `index` and its timing context, clocked at its
/// own unoptimized critical delay. Generation and this baseline STA stay
/// outside the timed optimizer call.
///
/// # Errors
///
/// On a circuit-model error.
pub fn prepare(seed: u64, index: u64) -> Result<(Netlist, TimingContext), String> {
    let netlist = generate_netlist(&NetlistSpec::large(
        gen::ppa_seed(seed, index),
        gen::PPA_CELLS,
    ));
    let ctx = TimingContext::for_node(TechNode::N100).map_err(|e| e.to_string())?;
    let critical = ctx
        .analyze(&netlist)
        .map_err(|e| e.to_string())?
        .critical_delay();
    Ok((netlist, ctx.with_clock(critical)))
}

/// Fails unless `netlist` ends with no negative slack under `ctx`.
fn check_slack(netlist: &Netlist, ctx: &TimingContext, index: u64) -> Result<(), String> {
    let report = ctx.analyze(netlist).map_err(|e| e.to_string())?;
    if report.is_feasible() {
        Ok(())
    } else {
        Err(format!(
            "ppa op {index} ended with negative slack ({} s)",
            report.worst_slack().0
        ))
    }
}

fn optimize(
    netlist: &mut Netlist,
    ctx: &TimingContext,
    workers: Option<usize>,
) -> Result<ParallelResult, String> {
    let options = ParallelOptions {
        workers,
        ..ParallelOptions::default()
    };
    optimize_parallel(netlist, ctx, &options).map_err(|e| e.to_string())
}

/// One set-up: op 0's netlist and baseline STA, then the determinism
/// check — that netlist optimized at one worker and at the default must
/// reach the same assignment digest. Returns whether it did.
fn setup(seed: u64) -> Result<bool, String> {
    let (netlist, ctx) = prepare(seed, 0)?;
    let mut single = netlist.clone();
    optimize(&mut single, &ctx, Some(1))?;
    let mut default = netlist;
    optimize(&mut default, &ctx, None)?;
    Ok(assignment_digest(&single) == assignment_digest(&default))
}

/// The untraced workload: [`SETUP_REPEATS`] set-ups, then optimizer calls
/// on fresh netlists for `seconds` (and at least the
/// [`gen::PPA_SAVING_OPS`] whose savings are averaged).
///
/// # Errors
///
/// When a call ends with negative slack or the circuit model fails.
pub fn run(seed: u64, seconds: f64) -> Result<Obj, String> {
    let mut setups = Vec::new();
    let mut deterministic = true;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        deterministic &= setup(seed)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut savings = Vec::new();
    let mut failed = 0u64;
    let mut k = 0u64;
    while k < gen::PPA_SAVING_OPS || start.elapsed().as_secs_f64() < seconds {
        let (mut netlist, ctx) = prepare(seed, k)?;
        let t = Instant::now();
        let result = optimize(&mut netlist, &ctx, None);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(result) => {
                latencies.push(ms);
                if k < gen::PPA_SAVING_OPS {
                    savings.push(result.total_saving());
                }
                check_slack(&netlist, &ctx, k)?;
            }
            Err(e) => {
                failed += 1;
                eprintln!("ppa op {k} failed: {e}");
            }
        }
        k += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    if savings.len() as u64 != gen::PPA_SAVING_OPS {
        return Err("an op of the power-saving seed set failed".into());
    }
    let s = stats::summarize(&latencies);
    // Every completed call was checked for slack; the determinism check
    // is one more checked output.
    Ok(Obj::new()
        .num("setup_s", stats::median(&setups))
        .int("attempted", k)
        .int("failed", failed)
        .int("checked", s.n as u64 + 1)
        .int("correct", s.n as u64 + u64::from(deterministic))
        .num("elapsed_s", elapsed)
        .int("n", s.n as u64)
        .num("p50_ms", s.p50)
        .num("p90_ms", s.p90)
        .num("mean_ms", s.mean)
        .num("rps", s.n as f64 / elapsed)
        .num(
            "power_saving",
            savings.iter().sum::<f64>() / savings.len() as f64,
        ))
}

/// Times incremental re-timings on `netlist`: each of [`PROBE_GATES`]
/// probes flips one gate of a fixed, seed-drawn set of topological
/// positions to high Vth and back, re-timing after each flip. Counts the
/// mean gates visited per re-timing.
fn probe(
    netlist: &mut Netlist,
    ctx: &TimingContext,
    seed: u64,
    scope: &Scope,
) -> Result<(), String> {
    let mut sta = IncrementalSta::new(ctx, netlist);
    let order = netlist.topological_order().to_vec();
    let mut draw = SplitMix64::new(seed ^ STREAM_PROBE);
    let mut visited = 0;
    for _ in 0..PROBE_GATES {
        let id = order[draw.below(order.len())];
        let original = netlist.gate(id).vth;
        let flipped = match original {
            VthClass::High => VthClass::Low,
            _ => VthClass::High,
        };
        for vth in [flipped, original] {
            netlist.gate_mut(id).set_vth(vth);
            let cone = timed(Some(scope), "circuit.probe", || sta.reevaluate(netlist, id))
                .map_err(|e| e.to_string())?;
            visited += cone.visited;
        }
    }
    scope.count(
        "circuit.probe_cone",
        visited as f64 / (2 * PROBE_GATES) as f64,
    );
    Ok(())
}

/// The traced run: per op, netlist generation and baseline STA, the
/// incremental-STA probe set, and the optimizer call made twice on the
/// same netlist — untraced, and traced with the program's telemetry
/// collector installed — for `seconds`. Spans go to `spans_out`.
///
/// # Errors
///
/// When the two calls disagree, a call ends with negative slack, or the
/// model fails.
pub fn trace(seed: u64, seconds: f64, spans_out: &Path) -> Result<Obj, String> {
    let tracer = Tracer::new();
    let start = Instant::now();
    let mut untraced_ms = Vec::new();
    let mut k = 0u64;
    while k < 2 || start.elapsed().as_secs_f64() < seconds {
        let scope = Scope {
            tracer: Arc::clone(&tracer),
            op: k,
            parent: None,
        };
        let s = Some(&scope);
        let seed_k = gen::ppa_seed(seed, k);
        let netlist = timed(s, "circuit.generate", || {
            generate_netlist(&NetlistSpec::large(seed_k, gen::PPA_CELLS))
        });
        let ctx = timed(s, "circuit.sta", || {
            let ctx = TimingContext::for_node(TechNode::N100)?;
            let critical = ctx.analyze(&netlist)?.critical_delay();
            Ok::<_, nanopower::circuit::CircuitError>(ctx.with_clock(critical))
        })
        .map_err(|e| e.to_string())?;
        let mut probed = netlist.clone();
        probe(&mut probed, &ctx, seed, &scope)?;

        let (mut plain, mut traced) = (netlist.clone(), netlist);
        let mut result = None;
        // Alternate which call runs first, so neither always inherits the
        // other's warm caches.
        for step in [k % 2, 1 - k % 2] {
            if step == 0 {
                let t = Instant::now();
                optimize(&mut plain, &ctx, None)?;
                untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            } else {
                let collector = Collector::new();
                let _installed = telemetry::install(&collector);
                result = Some(timed(s, "opt.run", || optimize(&mut traced, &ctx, None))?);
            }
        }
        let result = result.ok_or("traced call did not run")?;
        if assignment_digest(&plain) != assignment_digest(&traced) {
            return Err(format!("ppa op {k}: traced and untraced calls disagree"));
        }
        check_slack(&traced, &ctx, k)?;
        scope.count("opt.rounds", result.rounds.len() as f64);
        for r in &result.rounds {
            scope.count("opt.proposed", r.proposed as f64);
            scope.count("opt.accepted", r.accepted as f64);
            scope.count("opt.reverted", r.reverted as f64);
        }
        k += 1;
    }
    tracer
        .write_jsonl(spans_out)
        .map_err(|e| format!("cannot write spans: {e}"))?;

    let (spans, counts) = (tracer.records(), tracer.counts());
    let ms = |name: &str| median_of(&time_by_op(&spans, name)) / 1e3;
    let count = |name: &str| median_of(&count_by_op(&counts, name));
    let total = |name: &str| count_by_op(&counts, name).values().sum::<f64>();
    let probes: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "circuit.probe")
        .map(|s| s.dur_us())
        .collect();
    let opt_ms = ms("opt.run");
    let layers = Obj::new()
        .num("circuit.generate_ms", ms("circuit.generate"))
        .num("circuit.sta_ms", ms("circuit.sta"))
        .num("circuit.probe_us", stats::median(&probes))
        .num("circuit.probe_cone", count("circuit.probe_cone"))
        .num("opt.run_ms", opt_ms)
        .num("opt.rounds", count("opt.rounds"))
        .num("opt.proposed", count("opt.proposed"))
        .num("opt.accepted", count("opt.accepted"))
        .num("opt.reverted", count("opt.reverted"))
        .num(
            "opt.accept_ratio",
            total("opt.accepted") / total("opt.proposed").max(1.0),
        )
        .num(
            "telemetry.overhead_frac",
            opt_ms / stats::median(&untraced_ms) - 1.0,
        );
    Ok(Obj::new()
        .int("attempted", k)
        .int("failed", 0)
        .int("checked", k)
        .int("correct", k)
        .num("untraced_p50_ms", stats::median(&untraced_ms))
        .num("traced_p50_ms", opt_ms)
        .obj("layers", layers))
}
