//! `repro` — regenerates every table and figure of Sylvester & Kaul,
//! DAC 2001, through the parallel artifact engine.
//!
//! Usage:
//!
//! ```text
//! repro                    # everything, in parallel
//! repro table2 fig5        # selected artifacts
//! repro --list             # the artifact registry
//! repro --csv fig1 fig2    # CSV form (figures only)
//! repro --csv              # CSV form of every artifact that has one
//! repro --json             # machine-readable run report
//! repro --jobs 4           # worker-thread count (default: all cores)
//! repro --timeout-secs 30  # per-artifact deadline (watchdog)
//! repro --retries 2        # retry transient failures with backoff
//! repro --trace-out t.json # Chrome trace_event profile of the run
//! repro --journal r.jsonl  # crash-safe run journal (one line/artifact)
//! repro --resume r.jsonl   # resume: replay completed, run the rest
//! repro --check            # drift gate: compare against golden/
//! repro --check --csv      # drift gate over the CSV goldens
//! repro --golden DIR       # golden reference directory (default golden)
//! repro --bench            # perf harness: grid/thermal/STA/opt kernels
//! repro --bench --bench-quick          # smallest mesh only (CI smoke)
//! repro --bench --bench-out BENCH.json # report path (default
//!                                      # BENCH_grid.json)
//! repro --bench-opt        # optimizer scaling sweep (default
//!                          # BENCH_opt.json; 10k/100k/1M cells, or the
//!                          # 1k/5k smoke axis with --bench-quick)
//! ```
//!
//! Artifacts run concurrently across `--jobs` worker threads, but output
//! is always printed in request order and is byte-identical to a
//! `--jobs 1` run — only the telemetry (`--json` durations, worker
//! attribution, attempt counts) varies. A failing artifact doesn't stop
//! the run: the rest regenerate, the error summary lists the casualties
//! on stderr, and the exit code reports failure. With `--timeout-secs`,
//! an artifact that hangs is abandoned at the deadline instead of
//! stalling the queue; with `--retries N`, failed artifacts are
//! re-attempted up to `N` times with doubling backoff.
//!
//! # Crash recovery
//!
//! `--journal FILE` appends one flushed JSON line per completed artifact
//! (see `nanopower::journal`), so a `SIGKILL` loses at most the artifact
//! mid-render. `--resume FILE` loads the journal, replays the completed
//! artifacts verbatim (their stored outputs print byte-identically,
//! without re-rendering), runs only what is missing, and appends the new
//! completions to the same journal. The journal header pins the artifact
//! list and output form; a resume under a different request is refused.
//!
//! `SIGINT` (^C) cancels gracefully: workers drain the artifacts already
//! in flight, the journal is flushed, and the run report — marked
//! `"interrupted": true` in `--json` — covers every requested artifact,
//! with the never-started ones recorded as `cancelled`. A second ^C
//! kills immediately.
//!
//! # Drift gate
//!
//! `--check` compares every successfully rendered artifact against its
//! golden reference in `--golden DIR` (default `golden/`) under the
//! artifact's tolerance policy (`np_bench::golden`). A drifting artifact
//! is quarantined: its record becomes a typed `Drift` error with
//! per-cell diagnostics, the remaining artifacts still regenerate and
//! print, and the exit code reports failure. The hidden `--bless` flag
//! rewrites the golden references from the current outputs.
//!
//! The hidden `--chaos` flag appends three synthetic fault-injection
//! jobs (a panicking one, a hanging one, and a fail-twice-then-succeed
//! one) so the integration suite can exercise the failure paths of the
//! engine through the real binary.
//!
//! Every run records telemetry (spans, counters, value statistics — see
//! [`nanopower::telemetry`]): `--json` reports embed it as a `telemetry`
//! section, and `--trace-out FILE` writes the full span timeline as
//! Chrome `trace_event` JSON for `chrome://tracing` / Perfetto.

use nanopower::engine::{self, CancelToken, Job, RunHooks, RunPolicy, RunReport, Session};
use nanopower::journal::{self, Journal, JournalConfig, JournalEntry};
use nanopower::{telemetry, Error};
use np_bench::golden::GoldenStore;
use np_bench::registry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// SIGINT → cooperative cancellation. The library crates forbid unsafe
/// code; the binary is its own compilation unit, so the two-line
/// `signal(2)` FFI lives here instead of pulling in a libc crate the
/// offline container does not have.
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: Option<extern "C" fn(i32)>) -> usize;
    }

    extern "C" fn on_sigint(_: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
        // Restore the default disposition: the first ^C drains
        // gracefully, a second one kills immediately.
        unsafe {
            signal(SIGINT, None);
        }
    }

    /// Installs the handler. Idempotent.
    pub fn install() {
        unsafe {
            signal(SIGINT, Some(on_sigint));
        }
    }

    /// Whether a SIGINT has been observed.
    pub fn interrupted() -> bool {
        INTERRUPTED.load(Ordering::SeqCst)
    }
}

struct Options {
    list: bool,
    csv: bool,
    json: bool,
    jobs: usize,
    timeout: Option<Duration>,
    retries: u32,
    chaos: bool,
    trace_out: Option<PathBuf>,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
    check: bool,
    golden: PathBuf,
    bless: bool,
    bench: bool,
    bench_opt: bool,
    bench_quick: bool,
    bench_out: Option<PathBuf>,
    names: Vec<String>,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_args(args: Vec<String>) -> Result<Options, String> {
    let mut opts = Options {
        list: false,
        csv: false,
        json: false,
        jobs: default_jobs(),
        timeout: None,
        retries: 0,
        chaos: false,
        trace_out: None,
        journal: None,
        resume: None,
        check: false,
        golden: PathBuf::from("golden"),
        bless: false,
        bench: false,
        bench_opt: false,
        bench_quick: false,
        bench_out: None,
        names: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" | "-l" => opts.list = true,
            "--csv" => opts.csv = true,
            "--json" => opts.json = true,
            "--chaos" => opts.chaos = true,
            "--check" => opts.check = true,
            "--bless" => opts.bless = true,
            "--jobs" | "-j" => {
                let value = it.next().ok_or("--jobs needs a worker count")?;
                opts.jobs = parse_jobs(&value)?;
            }
            "--timeout-secs" => {
                let value = it.next().ok_or("--timeout-secs needs a duration")?;
                opts.timeout = Some(parse_timeout(&value)?);
            }
            "--retries" => {
                let value = it.next().ok_or("--retries needs a count")?;
                opts.retries = parse_retries(&value)?;
            }
            "--trace-out" => {
                let value = it.next().ok_or("--trace-out needs a file path")?;
                opts.trace_out = Some(PathBuf::from(value));
            }
            "--journal" => {
                let value = it.next().ok_or("--journal needs a file path")?;
                opts.journal = Some(PathBuf::from(value));
            }
            "--resume" => {
                let value = it.next().ok_or("--resume needs a journal path")?;
                opts.resume = Some(PathBuf::from(value));
            }
            "--golden" => {
                let value = it.next().ok_or("--golden needs a directory path")?;
                opts.golden = PathBuf::from(value);
            }
            "--bench" => opts.bench = true,
            "--bench-opt" => opts.bench_opt = true,
            "--bench-quick" => opts.bench_quick = true,
            "--bench-out" => {
                let value = it.next().ok_or("--bench-out needs a file path")?;
                opts.bench_out = Some(PathBuf::from(value));
            }
            other => {
                if let Some(value) = other.strip_prefix("--jobs=") {
                    opts.jobs = parse_jobs(value)?;
                } else if let Some(value) = other.strip_prefix("--timeout-secs=") {
                    opts.timeout = Some(parse_timeout(value)?);
                } else if let Some(value) = other.strip_prefix("--retries=") {
                    opts.retries = parse_retries(value)?;
                } else if let Some(value) = other.strip_prefix("--trace-out=") {
                    opts.trace_out = Some(PathBuf::from(value));
                } else if let Some(value) = other.strip_prefix("--journal=") {
                    opts.journal = Some(PathBuf::from(value));
                } else if let Some(value) = other.strip_prefix("--resume=") {
                    opts.resume = Some(PathBuf::from(value));
                } else if let Some(value) = other.strip_prefix("--golden=") {
                    opts.golden = PathBuf::from(value);
                } else if let Some(value) = other.strip_prefix("--bench-out=") {
                    opts.bench_out = Some(PathBuf::from(value));
                } else if other.starts_with('-') {
                    return Err(format!("unknown flag `{other}`"));
                } else {
                    opts.names.push(other.to_string());
                }
            }
        }
    }
    if opts.journal.is_some() && opts.resume.is_some() {
        return Err("--journal and --resume are mutually exclusive (resume appends)".into());
    }
    if opts.bless && opts.check {
        return Err("--bless and --check are mutually exclusive".into());
    }
    if opts.bench && opts.bench_opt {
        return Err("--bench and --bench-opt are mutually exclusive (run them separately)".into());
    }
    Ok(opts)
}

fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs needs a positive integer, got `{value}`")),
    }
}

fn parse_timeout(value: &str) -> Result<Duration, String> {
    match value.parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => Ok(Duration::from_secs_f64(s)),
        _ => Err(format!(
            "--timeout-secs needs a positive number of seconds, got `{value}`"
        )),
    }
}

fn parse_retries(value: &str) -> Result<u32, String> {
    value
        .parse::<u32>()
        .map_err(|_| format!("--retries needs a non-negative integer, got `{value}`"))
}

fn print_list() {
    for a in registry::REGISTRY {
        let csv = if a.has_csv() { "text,csv" } else { "text" };
        println!(
            "{:<16} {:<44} {:<10} [{csv}]",
            a.name, a.description, a.paper_ref
        );
    }
}

/// Builds one job per requested name. Unknown names become jobs that fail
/// with [`Error::UnknownArtifact`], so they surface in the run report and
/// error summary like any other per-artifact failure instead of aborting
/// the run.
fn build_jobs(names: &[String], csv: bool, transient: bool) -> Vec<Job> {
    names
        .iter()
        .map(|name| match registry::find(name) {
            Some(artifact) => artifact.job(csv).transient(transient),
            None => {
                let name = name.clone();
                Job::new(name.clone(), move || {
                    Err(Error::UnknownArtifact { name: name.clone() })
                })
            }
        })
        .collect()
}

/// The `--chaos` fault-injection jobs: one panics, one hangs well past
/// any test deadline, one fails twice then succeeds (exercising retry).
fn chaos_jobs() -> Vec<Job> {
    use std::sync::atomic::{AtomicU32, Ordering};
    static FLAKY_CALLS: AtomicU32 = AtomicU32::new(0);
    vec![
        Job::new("chaos-panic", || panic!("chaos: injected panic")),
        Job::new("chaos-hang", || {
            std::thread::sleep(Duration::from_secs(300));
            Ok("chaos: hang finished (no deadline was set)\n".into())
        }),
        Job::new("chaos-flaky", || {
            if FLAKY_CALLS.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(Error::InvalidParameter("chaos: injected glitch".into()))
            } else {
                Ok("chaos: recovered on attempt 3\n".into())
            }
        })
        .transient(true),
    ]
}

fn print_text_outputs(report: &RunReport, csv: bool) {
    for record in &report.records {
        if let Ok(text) = &record.outcome {
            if csv {
                println!("# {}", record.name);
                print!("{text}");
            } else {
                let pad = "=".repeat(60usize.saturating_sub(record.name.len()));
                println!("=== {} {pad}", record.name);
                println!("{text}");
            }
        }
    }
}

/// `--bless`: renders every requested artifact serially and rewrites its
/// golden reference files (text always, CSV where the artifact has one).
fn bless(names: &[String], store: &GoldenStore) -> Result<(), Error> {
    for name in names {
        let artifact =
            registry::find(name).ok_or_else(|| Error::UnknownArtifact { name: name.clone() })?;
        store.bless(name, false, &artifact.render_text()?)?;
        if artifact.has_csv() {
            store.bless(name, true, &artifact.render_csv()?)?;
        }
    }
    println!(
        "blessed {} artifact(s) into {}",
        names.len(),
        store.dir().display()
    );
    Ok(())
}

/// `--resume`: loads the journal, validates it against the request, and
/// returns `(names, completed)` — the pinned artifact list and the
/// entries to replay instead of re-running.
fn load_resume_state(
    path: &std::path::Path,
    opts: &Options,
) -> Result<(Vec<String>, HashMap<String, JournalEntry>), Error> {
    let loaded = journal::load(path)?;
    if loaded.config.csv != opts.csv {
        return Err(Error::Journal {
            reason: format!(
                "{}: journal was recorded with csv={}, request has csv={}",
                path.display(),
                loaded.config.csv,
                opts.csv
            ),
        });
    }
    if !opts.names.is_empty() && opts.names != loaded.config.names {
        return Err(Error::Journal {
            reason: format!(
                "{}: journal pins a different artifact list; resume without names \
                 or with the original ones",
                path.display()
            ),
        });
    }
    if loaded.truncated_tail {
        eprintln!(
            "note: {} ends in a torn line (mid-write kill); it was dropped",
            path.display()
        );
    }
    let completed: HashMap<String, JournalEntry> = loaded
        .completed()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    Ok((loaded.config.names, completed))
}

/// Merges replayed journal entries with the live run's records back into
/// submission order, preserving chaos/extra records at the tail.
fn merge_replayed(
    report: RunReport,
    names: &[String],
    completed: &HashMap<String, JournalEntry>,
) -> RunReport {
    let RunReport {
        records: live,
        workers,
        total_wall,
        telemetry,
        interrupted,
        ..
    } = report;
    let mut live = live.into_iter();
    let mut records = Vec::with_capacity(names.len());
    let mut replayed = 0;
    for name in names {
        match completed.get(name) {
            Some(entry) => {
                records.push(entry.to_record());
                replayed += 1;
            }
            None => records.extend(live.next()),
        }
    }
    records.extend(live); // chaos jobs ride behind the named artifacts
    RunReport {
        records,
        workers,
        total_wall,
        telemetry,
        interrupted,
        replayed,
    }
}

/// `--check`: quarantines each successful record that drifts from its
/// golden reference by swapping its outcome for the typed
/// [`Error::Drift`]. Records the engine never ran (failures, cancelled
/// placeholders) and non-registry names (chaos jobs) pass through.
fn apply_drift_gate(report: &mut RunReport, store: &GoldenStore, csv: bool) {
    for record in &mut report.records {
        if registry::find(&record.name).is_none() {
            continue;
        }
        let Ok(text) = &record.outcome else { continue };
        if let Err(drift) = store.check(&record.name, csv, text) {
            record.outcome = Err(drift);
        }
    }
}

fn run_artifacts(opts: &Options) -> Result<ExitCode, Error> {
    // No names means the whole registry; under `--csv`, every artifact
    // that has a CSV form. A text-only artifact named explicitly still
    // fails with "has no csv form".
    let requested: Vec<String> = if opts.names.is_empty() && !opts.chaos {
        registry::REGISTRY
            .iter()
            .filter(|a| !opts.csv || a.has_csv())
            .map(|a| a.name.to_string())
            .collect()
    } else {
        opts.names.clone()
    };
    let store = GoldenStore::new(&opts.golden);
    if opts.bless {
        bless(&requested, &store)?;
        return Ok(ExitCode::SUCCESS);
    }
    // Resume replaces the request with the journal's pinned one and
    // skips what is already completed.
    let (names, completed) = match &opts.resume {
        Some(path) => load_resume_state(path, opts)?,
        None => (requested, HashMap::new()),
    };
    let pending: Vec<String> = names
        .iter()
        .filter(|n| !completed.contains_key(n.as_str()))
        .cloned()
        .collect();
    let mut jobs = build_jobs(&pending, opts.csv, opts.retries > 0);
    if opts.chaos {
        jobs.extend(chaos_jobs());
    }
    // The journal writer: created fresh for --journal, re-opened in
    // append mode for --resume (the header is already there).
    let writer: Option<Arc<Mutex<Journal>>> = match (&opts.journal, &opts.resume) {
        (Some(path), _) => Some(Journal::create(
            path,
            &JournalConfig {
                csv: opts.csv,
                names: names.clone(),
            },
        )?),
        (None, Some(path)) => Some(Journal::append_to(path)?),
        (None, None) => None,
    }
    .map(|j| Arc::new(Mutex::new(j)));
    // Graceful ^C: the handler flips a flag, the watcher turns it into a
    // cooperative cancel, the engine drains in-flight artifacts, and the
    // journal keeps every completion observed before the drain.
    sigint::install();
    let token = CancelToken::new();
    {
        let token = token.clone();
        std::thread::spawn(move || loop {
            if sigint::interrupted() {
                token.cancel();
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    }
    let hooks = RunHooks {
        cancel: Some(token),
        on_record: writer.clone().map(|journal| {
            Arc::new(
                move |_idx: usize, record: &engine::JobRecord| match journal.lock() {
                    Ok(mut journal) => {
                        if let Err(e) = journal.record(record) {
                            eprintln!("journal write failed: {e}");
                        }
                    }
                    Err(_) => eprintln!("journal lock poisoned; record dropped"),
                },
            ) as engine::RecordObserver
        }),
    };
    let policy = RunPolicy {
        deadline: opts.timeout,
        retries: opts.retries,
        ..RunPolicy::default()
    };
    // A collector is always installed: `--json` then carries a
    // `telemetry` section and `--trace-out` can dump the span timeline.
    // Text output is unaffected, preserving the byte-identical contract.
    let collector = telemetry::Collector::new();
    let report = {
        let _guard = telemetry::install(&collector);
        let report = Session::new(jobs)
            .workers(opts.jobs)
            .policy(policy)
            .hooks(hooks)
            .run();
        let mut report = merge_replayed(report, &names, &completed);
        np_telemetry::counter("journal.replayed", report.replayed as u64);
        if opts.check {
            apply_drift_gate(&mut report, &store, opts.csv);
        }
        // Re-snapshot so the report's telemetry section includes the
        // resume/drift counters recorded after the engine returned.
        report.telemetry = Some(collector.summary());
        report
    };
    if report.interrupted {
        eprintln!("interrupted: drained in-flight artifacts; report is partial");
    }
    if let Some(path) = &opts.trace_out {
        if let Err(e) = std::fs::write(path, collector.chrome_trace()) {
            eprintln!("cannot write trace to {}: {e}", path.display());
            return Ok(ExitCode::FAILURE);
        }
    }
    if opts.json {
        print!("{}", report.to_json());
    } else {
        print_text_outputs(&report, opts.csv);
    }
    let summary = report.error_summary();
    if summary.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprint!("{summary}");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1).collect()) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if opts.list {
        print_list();
        return ExitCode::SUCCESS;
    }
    if opts.bench_opt {
        let report = match np_bench::perf::run_opt(np_bench::perf::BenchOptions {
            quick: opts.bench_quick,
        }) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("optimizer sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let out = opts
            .bench_out
            .clone()
            .unwrap_or_else(|| PathBuf::from("BENCH_opt.json"));
        if let Err(e) = std::fs::write(&out, report.to_json()) {
            eprintln!("cannot write opt bench report to {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        for r in &report.rows {
            println!(
                "{} cells: full STA {:.1} ms, probe {:.1} us (cone {:.0}), x{:.0} speedup, \
                 round {:.1} ms ({} accepts)",
                r.cells,
                r.full_sta_ns / 1e6,
                r.probe_ns / 1e3,
                r.probe_cone,
                r.inc_speedup,
                r.round_ns / 1e6,
                r.round_accepted
            );
        }
        println!("opt bench report written to {}", out.display());
        return ExitCode::SUCCESS;
    }
    if opts.bench {
        let report = np_bench::perf::run(np_bench::perf::BenchOptions {
            quick: opts.bench_quick,
        });
        let json = report.to_json();
        let out = opts
            .bench_out
            .clone()
            .unwrap_or_else(|| PathBuf::from("BENCH_grid.json"));
        if let Err(e) = std::fs::write(&out, &json) {
            eprintln!("cannot write bench report to {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
        if let Some(c) = &report.mg_vs_pcg {
            println!(
                "mg vs pcg at {n}x{n}: {pcg} pcg iterations vs {mgcg} mgcg sweep-equivalents (x{ratio:.1})",
                n = c.mesh,
                pcg = c.pcg_iterations,
                mgcg = c.mgcg_sweeps_equivalent,
                ratio = c.fine_sweep_ratio
            );
        }
        println!("bench report written to {}", out.display());
        return ExitCode::SUCCESS;
    }
    match run_artifacts(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
