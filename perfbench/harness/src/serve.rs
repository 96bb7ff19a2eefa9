//! The `serve-cold` and `serve-hot` workloads: closed loops against a
//! live `nanopowerd`, and the traced in-process replay of the same
//! request stream through the layers' public calls.

use crate::client::{self, closed_loop, split_reply, LoopOutcome, Verdict};
use crate::gen::{self, HotPool};
use crate::out::Obj;
use crate::stats;
use crate::trace::{self, count_by_op, median_of, time_by_op, timed, Scope, Tracer};
use nanopower::circuit::{generate_netlist, power::netlist_power, NetlistSpec, TimingContext};
use nanopower::engine::{Job, Session};
use nanopower::grid::mesh::MeshCache;
use nanopower::grid::solver::MeshProblem;
use nanopower::grid::{analytic, GridPlan, SolvePlan};
use nanopower::proto::{RecordMsg, ReportMsg, Request, Response, StatsMsg};
use nanopower::service::{ArtifactMemo, MemoConfig};
use nanopower::spec::{ScenarioSpec, SpecReport};
use nanopower::telemetry::{self as telemetry, Collector};
use nanopower::units::{Celsius, Hertz};
use nanopower::Chip;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Client connections (and replay threads): one sweep client that waits
/// for each reply. A second client's request would run its jobs on the
/// same two cores at the same time as the first's, so latency would track
/// how the scheduler interleaves the two rather than the program.
pub const CONNECTIONS: usize = 1;

/// Cold requests whose record digests are checked against an
/// in-process render: the first three, six specs, one per node.
pub const COLD_SAMPLE: u64 = 3;

/// Most cold requests the traced run replays in process (each costs three
/// renders of its specs: untraced, traced, and the separate layer legs).
pub const COLD_REPLAY_OPS: u64 = 20;

/// Most hot requests the traced run replays in process.
pub const HOT_REPLAY_OPS: u64 = 5_000;

/// Time slices of a timed phase; each reported figure is its median over
/// them. Five slices of a 25 s run hold ~50 cold or ~100 000 hot ops each.
const SLICES: usize = 5;

/// Upper bound on priming, which must finish well inside it.
const PRIME_TIMEOUT_S: f64 = 120.0;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Never-repeated cold-compute specs.
    Cold,
    /// Memo hits on a primed pool.
    Hot,
}

/// The request stream of one serve workload under one seed.
#[derive(Debug, Clone)]
pub struct Stream {
    kind: Kind,
    seed: u64,
    pool: HotPool,
}

impl Stream {
    /// The stream of `kind` under `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        Stream {
            kind,
            seed,
            pool: HotPool::new(seed),
        }
    }

    /// Request line `k`.
    pub fn line(&self, k: u64) -> String {
        match self.kind {
            Kind::Cold => gen::cold_line(self.seed, k),
            Kind::Hot => self.pool.line(self.seed, k),
        }
    }

    /// Most requests one run may send.
    fn max_ops(&self) -> u64 {
        match self.kind {
            Kind::Cold => gen::MAX_COLD_OPS,
            Kind::Hot => u64::MAX,
        }
    }

    /// Records one reply of request `k` should carry.
    fn records_per_request(&self) -> u64 {
        match self.kind {
            Kind::Cold => gen::COLD_SPECS_PER_REQUEST,
            Kind::Hot => 2,
        }
    }
}

/// A refusal that ends a reply: `busy` and `overloaded` break the
/// workload's shape (nothing may queue), anything else is a failed op.
fn refusal(reply: &Response) -> Verdict {
    match reply {
        Response::Busy { .. } | Response::Overloaded { .. } => Verdict::Fatal(format!(
            "refused during the timed phase: {}",
            reply.to_json()
        )),
        other => Verdict::Failed(other.to_json()),
    }
}

/// Primes a fresh daemon with the `serve-hot` pool, one entry per
/// request, returning the seconds it took and each entry's digest.
///
/// # Errors
///
/// When an entry fails, priming times out, or the memo does not hold the
/// whole pool afterwards.
pub fn prime(path: &Path, pool: &HotPool) -> Result<(f64, BTreeMap<String, String>), String> {
    let digests = Mutex::new(BTreeMap::new());
    let start = Instant::now();
    let outcome = closed_loop(
        path,
        CONNECTIONS,
        PRIME_TIMEOUT_S,
        pool.len() as u64,
        |k| pool.prime_line(k as usize),
        |_, replies| match split_reply(replies) {
            Err(reply) => Verdict::Fatal(format!("priming refused: {}", reply.to_json())),
            Ok((records, _)) => match records.as_slice() {
                [rec] if rec.status == "ok" && !rec.memo => match &rec.digest {
                    Some(d) => {
                        digests
                            .lock()
                            .expect("digest map poisoned")
                            .insert(rec.name.clone(), d.clone());
                        Verdict::Done {
                            checked: 0,
                            correct: 0,
                        }
                    }
                    None => Verdict::Fatal(format!("priming record {} has no digest", rec.name)),
                },
                other => Verdict::Fatal(format!("unexpected priming records {other:?}")),
            },
        },
    )?;
    let seconds = start.elapsed().as_secs_f64();
    if outcome.attempted != pool.len() as u64 {
        return Err(format!(
            "priming sent {} of {} entries",
            outcome.attempted,
            pool.len()
        ));
    }
    let entries = client::stats(path)?.memo_entries;
    if entries != pool.len() as u64 {
        return Err(format!(
            "memo holds {entries} entries after priming {}",
            pool.len()
        ));
    }
    Ok((seconds, digests.into_inner().expect("digest map poisoned")))
}

/// Judges one reply of request `k`.
fn judge(
    stream: &Stream,
    primed: &BTreeMap<String, String>,
    samples: &Mutex<BTreeMap<String, String>>,
    k: u64,
    replies: &[Response],
) -> Verdict {
    let (records, report) = match split_reply(replies) {
        Ok(parts) => parts,
        Err(reply) => return refusal(reply),
    };
    if records.len() as u64 != stream.records_per_request() || report.failures != 0 {
        return Verdict::Failed(format!(
            "request {k}: {} records, {} failures",
            records.len(),
            report.failures
        ));
    }
    let mut cold_names: Vec<Option<String>> = match stream.kind {
        Kind::Cold => gen::cold_specs(stream.seed, k)
            .iter()
            .map(|spec| Some(spec.job_name()))
            .collect(),
        Kind::Hot => Vec::new(),
    };
    let mut verdict = (0, 0);
    for rec in &records {
        let want_memo = stream.kind == Kind::Hot;
        if rec.memo != want_memo {
            return Verdict::Fatal(format!(
                "request {k}: record {} memo={} in a {} workload",
                rec.name,
                rec.memo,
                if want_memo { "hit-only" } else { "miss-only" }
            ));
        }
        let Some(digest) = rec.digest.as_ref().filter(|_| rec.status == "ok") else {
            return Verdict::Failed(format!(
                "request {k}: {} {} {}",
                rec.name,
                rec.status,
                rec.error.as_deref().unwrap_or("")
            ));
        };
        match stream.kind {
            Kind::Cold => {
                // Each of the request's specs answers once, in any order.
                let Some(slot) = cold_names
                    .iter_mut()
                    .find(|name| name.as_deref() == Some(rec.name.as_str()))
                else {
                    return Verdict::Failed(format!("request {k}: record named {}", rec.name));
                };
                *slot = None;
                if k < COLD_SAMPLE {
                    samples
                        .lock()
                        .expect("sample map poisoned")
                        .insert(rec.name.clone(), digest.clone());
                }
            }
            Kind::Hot => {
                verdict.0 += 1;
                verdict.1 += u64::from(primed.get(&rec.name) == Some(digest));
            }
        }
    }
    Verdict::Done {
        checked: verdict.0,
        correct: verdict.1,
    }
}

/// The daemon-side self-checks over a timed phase: no request refused,
/// every request served, no memo hit in `serve-cold`, no miss in
/// `serve-hot`. Returns the phase's memo hits.
fn check_stats(
    stream: &Stream,
    before: &StatsMsg,
    after: &StatsMsg,
    outcome: &LoopOutcome,
) -> Result<u64, String> {
    let hits = after.memo_hits - before.memo_hits;
    let served = after.served - before.served;
    if after.rejected != before.rejected || after.overloaded != before.overloaded {
        return Err(format!(
            "daemon refused {} busy / {} overloaded in the timed phase",
            after.rejected - before.rejected,
            after.overloaded - before.overloaded
        ));
    }
    if served != outcome.attempted {
        return Err(format!(
            "daemon served {served} of {} requests",
            outcome.attempted
        ));
    }
    let expected = match stream.kind {
        Kind::Cold => 0,
        Kind::Hot => served * stream.records_per_request(),
    };
    if hits != expected {
        return Err(format!(
            "daemon stats show {hits} memo hits over {served} requests; the workload needs {expected}"
        ));
    }
    Ok(hits)
}

/// Renders `specs` the way the daemon renders a request of them — as the
/// jobs of one `Session`, so each solve gets the same budget — and returns
/// each record's digest by name.
fn reference_digests(specs: &[ScenarioSpec]) -> Result<BTreeMap<String, String>, String> {
    let jobs = specs
        .iter()
        .cloned()
        .map(|spec| Job::new(spec.job_name(), move || spec.render(false)))
        .collect();
    Session::new(jobs)
        .run()
        .records
        .iter()
        .map(|r| {
            r.digest()
                .map(|d| (r.name.clone(), d))
                .ok_or_else(|| format!("reference render of {} failed", r.name))
        })
        .collect()
}

/// One timed phase against the daemon at `path`, with its checks.
struct Phase {
    outcome: LoopOutcome,
    hits: u64,
    checked: u64,
    correct: u64,
}

fn timed_phase(
    path: &Path,
    stream: &Stream,
    primed: &BTreeMap<String, String>,
    seconds: f64,
) -> Result<Phase, String> {
    let samples = Mutex::new(BTreeMap::new());
    let before = client::stats(path)?;
    let outcome = closed_loop(
        path,
        CONNECTIONS,
        seconds,
        stream.max_ops(),
        |k| stream.line(k),
        |k, replies| judge(stream, primed, &samples, k, replies),
    )?;
    let after = client::stats(path)?;
    let hits = check_stats(stream, &before, &after, &outcome)?;
    let (checked, correct) = match stream.kind {
        Kind::Hot => (outcome.checked, outcome.correct),
        Kind::Cold => {
            let samples = samples.into_inner().expect("sample map poisoned");
            if samples.is_empty() {
                return Err("no cold sample completed".into());
            }
            let mut correct = 0;
            for k in 0..COLD_SAMPLE {
                for (name, want) in reference_digests(&gen::cold_specs(stream.seed, k))? {
                    correct += u64::from(samples.get(&name) == Some(&want));
                }
            }
            (samples.len() as u64, correct)
        }
    };
    Ok(Phase {
        outcome,
        hits,
        checked,
        correct,
    })
}

/// The untraced workload: prime (for `serve-hot`), then a closed loop
/// for `seconds`, with every self-check.
///
/// # Errors
///
/// On any connection failure or broken self-check.
pub fn run(path: &Path, kind: Kind, seed: u64, seconds: f64) -> Result<Obj, String> {
    let stream = Stream::new(kind, seed);
    let (prime_s, primed) = match kind {
        Kind::Hot => prime(path, &stream.pool)?,
        Kind::Cold => (0.0, BTreeMap::new()),
    };
    let phase = timed_phase(path, &stream, &primed, seconds)?;
    let elapsed = phase.outcome.elapsed.as_secs_f64();
    let done: Vec<(f64, f64)> = phase.outcome.latencies.iter().map(|l| (l.2, l.1)).collect();
    let s = stats::sliced(&done, elapsed, SLICES);
    Ok(Obj::new()
        .num("prime_s", prime_s)
        .int("attempted", phase.outcome.attempted)
        .int("failed", phase.outcome.failed)
        .int("checked", phase.checked)
        .int("correct", phase.correct)
        .int("memo_hits", phase.hits)
        .num("elapsed_s", elapsed)
        .int("n", done.len() as u64)
        .num("p50_ms", s.p50)
        .num("p90_ms", s.p90)
        .num("mean_ms", s.mean)
        .num("rps", s.rate))
}

/// The `evaluate` reports of a traced request's rendered specs, by job
/// name.
type Reports = BTreeMap<String, SpecReport>;

/// Renders a spec job. Traced, it evaluates and renders under spans and
/// keeps the report for the layer-consistency check; untraced, it makes
/// the daemon's exact call.
fn render_job(
    spec: &ScenarioSpec,
    csv: bool,
    scope: Option<&Scope>,
    stash: &Mutex<Reports>,
) -> Result<String, nanopower::Error> {
    let Some(scope) = scope else {
        return spec.render(csv);
    };
    let job = scope.tracer.open("engine.job", scope.op, scope.parent);
    let inner = scope.under(job.id());
    timed(Some(&inner), "spec.render", || {
        let report = spec.evaluate()?;
        let text = if csv { report.csv() } else { report.render() };
        stash
            .lock()
            .expect("report stash poisoned")
            .insert(spec.job_name(), report);
        Ok(text)
    })
}

/// Serves one request line in process, the way `nanopowerd` does: parse,
/// cost, digest, memo lookup, a one-`Session` run of the misses with memo
/// insert and record encoding per record, then the report line. Traced,
/// returns the `evaluate` reports of the specs it rendered.
fn pipeline(
    line: &str,
    memo: &Arc<ArtifactMemo>,
    scope: Option<&Scope>,
) -> Result<Reports, String> {
    let request =
        timed(scope, "proto.parse", || Request::parse(line)).map_err(|e| e.to_string())?;
    let Request::Run(run) = request else {
        return Err("not a run request".into());
    };
    std::hint::black_box(run.specs.iter().map(ScenarioSpec::cost).sum::<u64>());
    let csv = run.csv;
    let session_id = scope.map(|s| s.tracer.reserve());
    let job_scope = scope.zip(session_id).map(|(s, id)| s.under(id));
    let stash = Arc::new(Mutex::new(Reports::new()));
    let mut jobs = Vec::new();
    let mut hits = 0u64;
    let encode_hit = |name: String, output_len: usize, digest: String| {
        let msg = Response::Record(RecordMsg {
            name,
            status: "ok".into(),
            duration_ms: 0.0,
            memo: true,
            bytes: Some(output_len as u64),
            digest: Some(digest),
            error: None,
        });
        std::hint::black_box(timed(scope, "proto.encode", || msg.to_json()));
    };
    for name in &run.names {
        let key = ArtifactMemo::request_key(name, csv);
        match timed(scope, "service.memo_get", || memo.get(key)) {
            Some(entry) => {
                hits += 1;
                encode_hit(name.clone(), entry.output.len(), entry.digest);
            }
            None => jobs.push(
                np_bench::registry::find(name)
                    .ok_or_else(|| format!("unknown artifact {name}"))?
                    .job(csv),
            ),
        }
    }
    for spec in &run.specs {
        let (_, name) = timed(scope, "spec.digest", || (spec.digest(), spec.job_name()));
        let key = ArtifactMemo::request_key(&name, csv);
        match timed(scope, "service.memo_get", || memo.get(key)) {
            Some(entry) => {
                hits += 1;
                encode_hit(name, entry.output.len(), entry.digest);
            }
            None => {
                let (spec, js, stash) = (spec.clone(), job_scope.clone(), Arc::clone(&stash));
                jobs.push(Job::new(name, move || {
                    render_job(&spec, csv, js.as_ref(), &stash)
                }));
            }
        }
    }
    let mut ok = hits;
    if !jobs.is_empty() {
        let _session = scope
            .zip(session_id)
            .map(|(s, id)| s.tracer.open_as(id, "engine.session", s.op, s.parent));
        let (memo, js) = (Arc::clone(memo), job_scope.clone());
        let report = Session::new(jobs)
            .on_record(move |_, record| {
                if let Ok(output) = &record.outcome {
                    timed(js.as_ref(), "service.memo_put", || {
                        memo.insert(ArtifactMemo::request_key(&record.name, csv), output.clone());
                    });
                }
                let msg = Response::Record(RecordMsg::from_record(record, false));
                std::hint::black_box(timed(js.as_ref(), "proto.encode", || msg.to_json()));
            })
            .run();
        if let Some(bad) = report.records.iter().find(|r| !r.is_ok()) {
            return Err(format!("{} {}", bad.name, bad.status()));
        }
        ok += report.records.len() as u64;
    }
    let msg = Response::Report(ReportMsg {
        ok,
        failures: 0,
        cancelled: 0,
        memo_hits: hits,
        total_ms: 0.0,
        interrupted: false,
    });
    std::hint::black_box(timed(scope, "proto.encode", || msg.to_json()));
    let reports = std::mem::take(&mut *stash.lock().expect("report stash poisoned"));
    Ok(reports)
}

/// Times each layer leg of a request's `specs` through its public call —
/// chip build and power budget, thermal closure, the mesh solve, netlist
/// generation, STA and power — one job per spec in one `Session`, as the
/// daemon runs them (so each solve gets the daemon's budget). Counts the
/// iterations and shards per solve, and checks every result against the
/// `evaluate` report of the same spec.
fn legs(specs: &[ScenarioSpec], scope: &Scope, reports: &Reports) -> Result<(), String> {
    let collector = Collector::new();
    let _installed = telemetry::install(&collector);
    let results = Arc::new(Mutex::new(Vec::new()));
    let mut jobs = Vec::new();
    for spec in specs {
        let report = reports
            .get(&spec.job_name())
            .ok_or_else(|| format!("{} rendered no spec report", spec.job_name()))?
            .clone();
        let (spec, scope, results) = (spec.clone(), scope.clone(), Arc::clone(&results));
        jobs.push(Job::new(spec.job_name(), move || {
            let result = run_legs(&spec, &scope, &report);
            results.lock().expect("legs results poisoned").push(result);
            Ok(String::new())
        }));
    }
    Session::new(jobs).run();
    let results = std::mem::take(&mut *results.lock().expect("legs results poisoned"));
    if results.len() != specs.len() {
        return Err("a legs job did not run".into());
    }
    let shards = results
        .into_iter()
        .collect::<Result<Vec<usize>, String>>()?;
    let iterations: u64 = collector
        .summary()
        .counters
        .iter()
        .filter(|(name, _)| name == "grid.pcg.iterations" || name == "grid.mgcg.sweeps_equivalent")
        .map(|(_, n)| n)
        .sum();
    let solves = specs.len() as f64;
    scope.count("grid.iterations", iterations as f64 / solves);
    scope.count("grid.shards", shards.iter().sum::<usize>() as f64 / solves);
    Ok(())
}

/// Fails, naming the leg, when a leg's result differs from `evaluate`'s.
fn same<T: PartialEq + std::fmt::Debug>(leg: &str, ours: T, theirs: T) -> Result<(), String> {
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "layer leg {leg} gave {ours:?}, ScenarioSpec::evaluate gave {theirs:?}"
        ))
    }
}

/// The legs themselves, on the engine worker; returns the shard count the
/// grid plan resolves to there.
fn run_legs(spec: &ScenarioSpec, scope: &Scope, report: &SpecReport) -> Result<usize, String> {
    let s = Some(scope);
    let duty = spec.activity * spec.workload_ratio;
    let (chip, budget) = timed(s, "chip.build", || {
        let mut builder = Chip::builder(spec.node)
            .activity(duty)
            .effective_fraction(spec.effective_fraction);
        if let Some(t) = spec.junction_temp_c {
            builder = builder.junction_temp(Celsius(t));
        }
        let chip = builder.build().map_err(|e| e.to_string())?;
        let budget = chip.power_budget().map_err(|e| e.to_string())?;
        Ok::<_, String>((chip, budget))
    })?;
    same("chip", chip, report.chip)?;
    same("power budget", budget, report.budget)?;
    let thermal =
        timed(s, "thermal.closure", || chip.thermal_closure()).map_err(|e| e.to_string())?;
    same("thermal closure", &thermal, &report.thermal)?;

    let grid = spec.grid.ok_or("spec has no grid leg")?;
    let plan = GridPlan::min_pitch(spec.node).map_err(|e| e.to_string())?;
    let rail = plan.rail_width.ok_or("min-pitch plan lost routability")?;
    let analytic =
        analytic::worst_case_drop(spec.node, plan.bump_pitch, rail).map_err(|e| e.to_string())?;
    let mesh = timed(s, "grid.solve", || {
        MeshCache::new().worst_drop_with_resolution(
            spec.node,
            plan.bump_pitch,
            rail,
            grid.resolution,
        )
    })
    .map_err(|e| e.to_string())?;
    // The mesh assembler rounds an even side up to the next odd one.
    let side = grid.resolution | 1;
    let (_, shards) = SolvePlan::auto().resolve_for(&MeshProblem::new(side, side, 1.0));
    let theirs = report.grid.ok_or("evaluate dropped the grid leg")?;
    same("grid analytic drop", analytic, theirs.analytic)?;
    same("grid mesh drop", mesh, theirs.mesh)?;

    let tier = spec.netlist.ok_or("spec has no netlist leg")?;
    let netlist = timed(s, "circuit.generate", || {
        generate_netlist(&NetlistSpec::large(tier.seed, tier.cells))
    });
    let (ctx, critical) = timed(s, "circuit.sta", || {
        let ctx = TimingContext::for_node(spec.node)?;
        let critical = ctx.analyze(&netlist)?.critical_delay();
        Ok::<_, nanopower::circuit::CircuitError>((ctx, critical))
    })
    .map_err(|e| e.to_string())?;
    let power = timed(s, "circuit.power", || {
        netlist_power(&netlist, &ctx, duty, Hertz(1.0 / critical.0))
    })
    .map_err(|e| e.to_string())?;
    let theirs = report.netlist.ok_or("evaluate dropped the netlist leg")?;
    same("netlist critical delay", critical, theirs.critical)?;
    same("netlist dynamic power", power.dynamic, theirs.dynamic)?;
    same("netlist leakage power", power.leakage, theirs.leakage)?;
    Ok(shards)
}

/// Layer legs of the cold spec shape, in the order they are summed into
/// a render's attributed time.
const LEG_SPANS: [&str; 6] = [
    "chip.build",
    "thermal.closure",
    "grid.solve",
    "circuit.generate",
    "circuit.sta",
    "circuit.power",
];

/// The traced run: a client-observed phase against the daemon (a quarter
/// of `seconds`), then an in-process replay of the same requests, each
/// served untraced and traced, plus the spec-parse probe and (cold) the
/// separately timed layer legs. Spans go to `spans_out`; the per-layer
/// metrics are returned.
///
/// # Errors
///
/// On any self-check, a leg that disagrees with `evaluate`, or a render
/// that the legs do not account for.
pub fn trace(
    path: &Path,
    kind: Kind,
    seed: u64,
    seconds: f64,
    workdir: &Path,
    spans_out: &Path,
) -> Result<Obj, String> {
    let stream = Stream::new(kind, seed);
    let primed = match kind {
        Kind::Hot => prime(path, &stream.pool)?.1,
        Kind::Cold => BTreeMap::new(),
    };
    let phase = timed_phase(path, &stream, &primed, (seconds / 4.0).max(2.0))?;
    let records = phase.outcome.latencies.len() as u64 * stream.records_per_request();
    let hit_ratio = phase.hits as f64 / records.max(1) as f64;
    let cap = match kind {
        Kind::Cold => COLD_REPLAY_OPS,
        Kind::Hot => HOT_REPLAY_OPS,
    };
    let replay: Vec<u64> = phase
        .outcome
        .latencies
        .iter()
        .map(|l| l.0)
        .take(cap as usize)
        .collect();
    let client_ms: Vec<f64> = phase
        .outcome
        .latencies
        .iter()
        .take(replay.len())
        .map(|l| l.1)
        .collect();

    let (memo_untraced, memo_traced) = match kind {
        Kind::Cold => {
            let open = |name: &str| {
                ArtifactMemo::with_spill(workdir.join(name), MemoConfig::default())
                    .map(|(memo, _)| Arc::new(memo))
                    .map_err(|e| e.to_string())
            };
            (open("untraced.spill")?, open("traced.spill")?)
        }
        Kind::Hot => {
            let memo = Arc::new(ArtifactMemo::new());
            for i in 0..stream.pool.len() {
                pipeline(&stream.pool.prime_line(i), &memo, None)?;
            }
            (Arc::clone(&memo), memo)
        }
    };

    let tracer = Tracer::new();
    let next = AtomicU64::new(0);
    let per_thread: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let (tracer, next, replay, stream) = (&tracer, &next, &replay, &stream);
                let (memo_untraced, memo_traced) = (&memo_untraced, &memo_traced);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(&k) = replay.get(i) else { break };
                        let line = stream.line(k);
                        let mut untraced_ms = 0.0;
                        let mut served = Reports::new();
                        // Alternate the order so neither side always runs
                        // right after the other's cache warm-up.
                        for step in [k % 2, 1 - k % 2] {
                            if step == 0 {
                                let t = Instant::now();
                                pipeline(&line, memo_untraced, None)?;
                                untraced_ms = t.elapsed().as_secs_f64() * 1e3;
                            } else {
                                let collector = Collector::new();
                                let _installed = telemetry::install(&collector);
                                let op = tracer.open("op", k, None);
                                let op_scope = Scope {
                                    tracer: Arc::clone(tracer),
                                    op: k,
                                    parent: Some(op.id()),
                                };
                                served = pipeline(&line, memo_traced, Some(&op_scope))?;
                            }
                        }
                        let probe = Scope {
                            tracer: Arc::clone(tracer),
                            op: k,
                            parent: None,
                        };
                        let Ok(Request::Run(run)) = Request::parse(&line) else {
                            return Err(format!("request {k} does not parse"));
                        };
                        for spec in &run.specs {
                            let text = spec.to_json();
                            timed(Some(&probe), "spec.parse", || {
                                ScenarioSpec::parse(&text).map(|s| s.cost())
                            })
                            .map_err(|e| e.to_string())?;
                        }
                        if kind == Kind::Cold {
                            legs(&run.specs, &probe, &served)?;
                        }
                        out.push(untraced_ms);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut untraced_ms = Vec::new();
    for part in per_thread {
        untraced_ms.extend(part?);
    }
    tracer
        .write_jsonl(spans_out)
        .map_err(|e| format!("cannot write spans: {e}"))?;

    let (spans, counts) = (tracer.records(), tracer.counts());
    let ms = |name: &str| median_of(&time_by_op(&spans, name)) / 1e3;
    let us = |name: &str| median_of(&time_by_op(&spans, name));
    let count = |name: &str| median_of(&count_by_op(&counts, name));
    let traced_op_ms = median_of(&time_by_op(&spans, "op")) / 1e3;
    let untraced_p50 = stats::median(&untraced_ms);
    let mut layers = Obj::new()
        .num("proto.parse_us", us("proto.parse"))
        .num("proto.encode_us", us("proto.encode"))
        .num("spec.parse_us", us("spec.parse"))
        .num("spec.digest_us", us("spec.digest"))
        .num("service.memo_get_us", us("service.memo_get"))
        .num("service.memo_put_ms", ms("service.memo_put"))
        .num("service.memo_hit_ratio", hit_ratio)
        .num(
            "engine.session_ms",
            median_of(&trace::self_time_by_op(&spans, "engine.session")) / 1e3,
        )
        .num(
            "daemon.overhead_ms",
            stats::median(&client_ms) - untraced_p50,
        )
        .num("telemetry.overhead_frac", traced_op_ms / untraced_p50 - 1.0);
    if kind == Kind::Cold {
        let render = time_by_op(&spans, "spec.render");
        let leg_times: Vec<BTreeMap<u64, f64>> =
            LEG_SPANS.iter().map(|n| time_by_op(&spans, n)).collect();
        let mut unattributed = Vec::new();
        let mut attributed = Vec::new();
        for (op, total) in &render {
            let legs: f64 = leg_times.iter().filter_map(|m| m.get(op)).sum();
            unattributed.push((total - legs) / 1e3);
            attributed.push(legs / 1e3);
        }
        let unattributed_ms = stats::median(&unattributed);
        let attributed_ms = stats::median(&attributed);
        // The legs must account for the render: if `evaluate` grows a
        // stage the legs do not time, this gap shows it.
        if unattributed_ms.abs() > 0.25 * attributed_ms {
            return Err(format!(
                "spec.unattributed_ms {unattributed_ms:.3} is not small next to the legs' {attributed_ms:.3} ms"
            ));
        }
        layers = layers
            .num("spec.unattributed_ms", unattributed_ms)
            .num("grid.solve_ms", ms("grid.solve"))
            .num("grid.iterations", count("grid.iterations"))
            .num("grid.shards", count("grid.shards"))
            .num("circuit.generate_ms", ms("circuit.generate"))
            .num("circuit.sta_ms", ms("circuit.sta"))
            .num("circuit.power_ms", ms("circuit.power"))
            .num("chip.build_ms", ms("chip.build"))
            .num("thermal.closure_ms", ms("thermal.closure"));
    }
    Ok(Obj::new()
        .int("attempted", phase.outcome.attempted)
        .int("failed", phase.outcome.failed)
        .int("checked", phase.checked)
        .int("correct", phase.correct)
        .int("replayed", untraced_ms.len() as u64)
        .num("client_p50_ms", stats::median(&client_ms))
        .num("untraced_p50_ms", untraced_p50)
        .num("traced_p50_ms", traced_op_ms)
        .obj("layers", layers))
}
