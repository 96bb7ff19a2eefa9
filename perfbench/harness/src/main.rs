//! `perfbench-harness`: the compiled half of the nanopower benchmark.
//! `perfbench/run.py` builds it and calls one subcommand per step; each
//! prints one JSON line on stdout, or a reason on stderr and exits 1.
//!
//! ```text
//! perfbench-harness refloop
//! perfbench-harness prime       --socket S --seed N
//! perfbench-harness serve       --socket S --workload serve-cold|serve-hot --seed N --seconds T
//! perfbench-harness trace-serve --socket S --workload serve-cold|serve-hot --seed N --seconds T
//!                               --workdir DIR --spans FILE
//! perfbench-harness ppa         --seed N --seconds T
//! perfbench-harness trace-ppa   --seed N --seconds T --spans FILE
//! perfbench-harness plan        --resolution R --jobs J
//! ```

use nanopower::engine::{Job, Session};
use nanopower::grid::solver::MeshProblem;
use nanopower::grid::SolvePlan;
use perfbench_harness::gen::{HotPool, SplitMix64};
use perfbench_harness::out::Obj;
use perfbench_harness::{ppa, serve};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Iterations of the reference loop (about 0.1 s on a 2020s core).
const REFLOOP_ITERS: u64 = 50_000_000;

fn flag(args: &[String], name: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("missing {name}"))
}

fn num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let text = flag(args, name)?;
    text.parse()
        .map_err(|_| format!("{name}: cannot parse `{text}`"))
}

fn kind(args: &[String]) -> Result<serve::Kind, String> {
    match flag(args, "--workload")?.as_str() {
        "serve-cold" => Ok(serve::Kind::Cold),
        "serve-hot" => Ok(serve::Kind::Hot),
        other => Err(format!("unknown serve workload `{other}`")),
    }
}

fn seed(args: &[String]) -> Result<u64, String> {
    let seed: u64 = num(args, "--seed")?;
    if seed >= 1 << 32 {
        return Err("--seed must be below 2^32".into());
    }
    Ok(seed)
}

/// A fixed integer-and-float loop: its time tracks the host's speed at
/// the moment, beside each run's measurements.
fn refloop() -> Obj {
    let start = Instant::now();
    let mut rng = SplitMix64::new(std::hint::black_box(1));
    let mut acc = 0.0f64;
    for _ in 0..std::hint::black_box(REFLOOP_ITERS) {
        acc += (rng.next_u64() >> 40) as f64 * 1e-9;
    }
    std::hint::black_box(acc);
    Obj::new().num("refloop_ms", start.elapsed().as_secs_f64() * 1e3)
}

/// The grid plan a mesh of side `resolution` resolves to inside an engine
/// run of `jobs` jobs at the default worker count — the solver budget a
/// `repro` run gives its mesh artifacts.
fn plan(resolution: usize, jobs: usize) -> Obj {
    let slot = Arc::new(Mutex::new(None));
    let probe = Arc::clone(&slot);
    let mut work = vec![Job::new("plan", move || {
        // The mesh assembler rounds an even side up to the next odd one.
        let side = resolution | 1;
        *probe.lock().expect("plan slot poisoned") =
            Some(SolvePlan::auto().resolve_for(&MeshProblem::new(side, side, 1.0)));
        Ok(String::new())
    })];
    work.extend((1..jobs).map(|i| Job::new(format!("idle{i}"), || Ok(String::new()))));
    Session::new(work).run();
    let (strategy, shards) = slot
        .lock()
        .expect("plan slot poisoned")
        .take()
        .expect("the plan job ran");
    Obj::new()
        .str("strategy", &format!("{strategy:?}"))
        .int("shards", shards as u64)
}

fn dispatch(args: &[String]) -> Result<Obj, String> {
    let sub = args.first().map(String::as_str).unwrap_or("");
    let socket = || flag(args, "--socket").map(PathBuf::from);
    match sub {
        "refloop" => Ok(refloop()),
        "prime" => {
            let (seconds, digests) = serve::prime(&socket()?, &HotPool::new(seed(args)?))?;
            Ok(Obj::new()
                .num("prime_s", seconds)
                .int("entries", digests.len() as u64))
        }
        "serve" => serve::run(
            &socket()?,
            kind(args)?,
            seed(args)?,
            num(args, "--seconds")?,
        ),
        "trace-serve" => serve::trace(
            &socket()?,
            kind(args)?,
            seed(args)?,
            num(args, "--seconds")?,
            &PathBuf::from(flag(args, "--workdir")?),
            &PathBuf::from(flag(args, "--spans")?),
        ),
        "ppa" => ppa::run(seed(args)?, num(args, "--seconds")?),
        "trace-ppa" => ppa::trace(
            seed(args)?,
            num(args, "--seconds")?,
            &PathBuf::from(flag(args, "--spans")?),
        ),
        "plan" => Ok(plan(num(args, "--resolution")?, num(args, "--jobs")?)),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(result) => println!("{}", result.render()),
        Err(reason) => {
            eprintln!("perfbench-harness: {reason}");
            std::process::exit(1);
        }
    }
}
