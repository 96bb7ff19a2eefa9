//! The parallel artifact engine: a work-queue runner with per-run
//! telemetry, deadlines, and bounded retries.
//!
//! Motivated by the concurrent power/thermal-evaluation workloads of the
//! related literature (Rosselló et al.; Atienza et al.), this module
//! turns a list of named jobs — closures producing text — into a
//! [`RunReport`] by fanning them out over `N` worker threads from
//! [`std::thread::scope`]. Four guarantees shape the design:
//!
//! 1. **Determinism.** Jobs are claimed from a shared queue in submission
//!    order, but results are stored back by job index, so
//!    [`RunReport::records`] — and anything rendered from it — is
//!    byte-identical no matter how many workers ran or how they
//!    interleaved. Only the telemetry (durations, worker attribution,
//!    attempt counts) varies between runs.
//! 2. **Failure isolation.** A job that returns an error — or panics —
//!    marks its own record and the engine keeps going; the summary and
//!    exit status report the damage at the end instead of aborting on the
//!    first failure.
//! 3. **Bounded waiting.** A [`RunPolicy`] deadline puts a watchdog on
//!    every job: an attempt that outlives the deadline is recorded as
//!    [`Error::DeadlineExceeded`] and the worker moves on — one hung
//!    model cannot stall the queue. (The abandoned attempt finishes on a
//!    detached thread and its result is discarded.)
//! 4. **Observability.** Every record carries wall-clock duration, the
//!    worker that ran it, the number of attempts, whether the deadline
//!    fired, and an FNV-1a digest of its output; [`RunReport::to_json`]
//!    emits the whole run as a machine-readable report for tracking
//!    performance trajectory across commits.
//! 5. **Graceful interruption.** A [`Session`] accepts a
//!    [`CancelToken`] and an `on_record` observer: cancellation drains
//!    in-flight jobs instead of tearing them down mid-solve, marks
//!    never-started jobs [`Error::Cancelled`], and flags the report
//!    [`RunReport::interrupted`]; the observer fires as each record
//!    becomes final — including the `Cancelled` placeholder records of
//!    jobs a cancelled run never started — which is what the crash-safe
//!    run journal ([`crate::journal`]) and the `nanopowerd` service
//!    response stream both append from.
//!
//! The single entry point is the [`Session`] builder:
//!
//! ```
//! use nanopower::engine::{Job, Session};
//!
//! let jobs = vec![Job::new("greet", || Ok("hello\n".into()))];
//! let report = Session::new(jobs).workers(2).run();
//! assert!(report.failures().is_empty());
//! ```
//!
//! Retries are opt-in per job: only jobs flagged
//! [`Job::transient`] are re-attempted (with doubling backoff), because a
//! deterministic model failure will fail identically every time —
//! retrying it only burns wall-clock. A deadline-exceeded attempt is
//! terminal even for transient jobs, so a hung job costs at most one
//! deadline, not `retries + 1` of them.

use crate::error::Error;
use crate::jsonio;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A cooperative cancellation token shared between the engine and its
/// caller.
///
/// Cancellation is *graceful*: workers stop claiming new jobs, in-flight
/// attempts drain to completion (bounded by the policy deadline when one
/// is set), and jobs that never started are recorded as
/// [`Error::Cancelled`] so the report still covers every submitted job —
/// marked [`RunReport::interrupted`]. The token also reaches the retry
/// loop and the deadline watchdog: a cancelled run skips further retries
/// and their backoff sleeps instead of prolonging the drain.
///
/// Clones share the same flag, so the caller can hand one clone to a
/// signal handler thread and another to [`Session::cancel`]. A token
/// made with [`CancelToken::with_deadline`] also reads as cancelled once
/// its deadline has passed, with no thread to fire it: every reader
/// polls.
///
/// # Examples
///
/// ```
/// use nanopower::engine::CancelToken;
/// use std::time::Instant;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// assert!(CancelToken::with_deadline(Instant::now()).is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh token that cancels itself at `deadline`.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
            ..Self::default()
        }
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested or the deadline has
    /// passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || self.deadline.is_some_and(|at| Instant::now() >= at)
    }
}

/// A completion observer: called with `(submission_index, record)` the
/// moment a job's record becomes final.
type RecordObserver = Arc<dyn Fn(usize, &JobRecord) + Send + Sync>;

/// One unit of work: a named closure producing rendered text.
///
/// The runner is an `Fn` behind an [`Arc`] (not `FnOnce`) so the engine
/// can re-invoke it on retry and hand a clone to the deadline watchdog's
/// sacrificial thread.
pub struct Job {
    name: String,
    runner: Arc<dyn Fn() -> Result<String, Error> + Send + Sync>,
    transient: bool,
}

impl Job {
    /// Wraps a closure as a named job.
    pub fn new(
        name: impl Into<String>,
        runner: impl Fn() -> Result<String, Error> + Send + Sync + 'static,
    ) -> Self {
        Job {
            name: name.into(),
            runner: Arc::new(runner),
            transient: false,
        }
    }

    /// Marks the job's failures as transient: under a [`RunPolicy`] with
    /// `retries > 0`, a failed (errored or panicked — but not timed-out)
    /// attempt is retried with backoff instead of recorded immediately.
    pub fn transient(mut self, transient: bool) -> Self {
        self.transient = transient;
        self
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("transient", &self.transient)
            .finish_non_exhaustive()
    }
}

/// Failure-handling policy for one engine run.
///
/// # Examples
///
/// ```
/// use nanopower::engine::{Job, RunPolicy, Session};
/// use std::time::Duration;
///
/// let policy = RunPolicy {
///     deadline: Some(Duration::from_secs(30)),
///     retries: 2,
///     ..RunPolicy::default()
/// };
/// let jobs = vec![Job::new("quick", || Ok("done\n".into()))];
/// let report = Session::new(jobs).workers(1).policy(policy).run();
/// assert!(report.failures().is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPolicy {
    /// Per-attempt wall-clock budget. `None` waits forever (the
    /// pre-policy behavior).
    pub deadline: Option<Duration>,
    /// Extra attempts granted to jobs flagged [`Job::transient`]. Zero
    /// disables retries for everyone.
    pub retries: u32,
    /// Sleep before the first retry; doubles on each further retry.
    pub backoff: Duration,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            deadline: None,
            retries: 0,
            backoff: Duration::from_millis(25),
        }
    }
}

impl RunPolicy {
    /// Attempts a job is allowed under this policy.
    fn max_attempts(&self, job_is_transient: bool) -> u32 {
        if job_is_transient {
            self.retries.saturating_add(1)
        } else {
            1
        }
    }

    /// Backoff before retry number `retry` (1-based), doubling each time.
    fn backoff_before(&self, retry: u32) -> Duration {
        let doublings = retry.saturating_sub(1).min(16);
        self.backoff.saturating_mul(1u32 << doublings)
    }
}

/// Telemetry and outcome for one executed [`Job`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job's name.
    pub name: String,
    /// Rendered output on success, the error otherwise (panics are
    /// converted to [`Error::Panic`], watchdog expiries to
    /// [`Error::DeadlineExceeded`]).
    pub outcome: Result<String, Error>,
    /// Wall-clock time the job took, across all attempts (including
    /// backoff sleeps).
    pub duration: Duration,
    /// Index of the worker thread (0-based) that ran the job.
    pub worker: usize,
    /// Number of attempts executed (1 unless the job was transient and
    /// retried).
    pub attempts: u32,
    /// Whether the final attempt was cut off by the policy deadline.
    pub timed_out: bool,
}

impl JobRecord {
    /// Whether the job succeeded.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// `fnv1a:<16 hex digits>` digest of the output, when the job
    /// succeeded — cheap fingerprint for spotting output drift between
    /// runs without storing the text.
    pub fn digest(&self) -> Option<String> {
        self.outcome
            .as_ref()
            .ok()
            .map(|s| format!("fnv1a:{:016x}", fnv1a64(s.as_bytes())))
    }

    /// The record's report status: `ok`, `drift` (quarantined by the
    /// golden gate), `cancelled` (never started before an interrupt),
    /// `panicked` (the job unwound and was caught by the engine's
    /// panic guard — distinguishable from an ordinary typed failure so
    /// service layers can quarantine the offending input), or `error`.
    pub fn status(&self) -> &'static str {
        match &self.outcome {
            Ok(_) => "ok",
            Err(Error::Drift { .. }) => "drift",
            Err(Error::Cancelled) => "cancelled",
            Err(Error::Panic(_)) => "panicked",
            Err(_) => "error",
        }
    }
}

/// The result of one engine run: every record in submission order plus
/// run-level telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Per-job records, in the order the jobs were submitted (never in
    /// completion order — see the module's determinism guarantee).
    pub records: Vec<JobRecord>,
    /// Worker threads the run was configured with.
    pub workers: usize,
    /// Wall-clock time of the whole run.
    pub total_wall: Duration,
    /// Aggregated [`np_telemetry`] summary — counters, value statistics,
    /// and per-span wall time from every instrumented path the run
    /// touched (engine lifecycle and the model solvers underneath).
    /// `None` unless a collector was installed on the calling thread
    /// when the run started.
    pub telemetry: Option<np_telemetry::Summary>,
    /// Whether the run was cancelled before every job completed. Jobs
    /// that never started carry [`Error::Cancelled`] records.
    pub interrupted: bool,
    /// Records replayed from a crash-safe journal instead of executed
    /// (always 0 for a direct engine run; the `repro --resume` merge
    /// sets it).
    pub replayed: usize,
}

impl RunReport {
    /// The records that failed, submission order.
    pub fn failures(&self) -> Vec<&JobRecord> {
        self.records.iter().filter(|r| !r.is_ok()).collect()
    }

    /// A one-line-per-failure summary, empty string when all succeeded.
    pub fn error_summary(&self) -> String {
        let failures = self.failures();
        if failures.is_empty() {
            return String::new();
        }
        let mut out = format!(
            "{} of {} artifacts failed:\n",
            failures.len(),
            self.records.len()
        );
        for r in failures {
            if let Err(err) = &r.outcome {
                let attempts = if r.attempts > 1 {
                    format!(" (after {} attempts)", r.attempts)
                } else {
                    String::new()
                };
                out.push_str(&format!("  {}: {err}{attempts}\n", r.name));
            }
        }
        out
    }

    /// The machine-readable run report (see DESIGN.md §"Run-report JSON
    /// schema"): per-artifact status, duration, worker, attempt count,
    /// deadline flag, and output digest, plus run-level worker count and
    /// wall-clock.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"nanopower-run-report/v1\",\n");
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!(
            "  \"total_ms\": {:.3},\n",
            self.total_wall.as_secs_f64() * 1e3
        ));
        out.push_str(&format!("  \"interrupted\": {},\n", self.interrupted));
        out.push_str(&format!("  \"replayed\": {},\n", self.replayed));
        out.push_str(&format!("  \"failures\": {},\n", self.failures().len()));
        if let Some(telemetry) = &self.telemetry {
            out.push_str(&format!("  \"telemetry\": {},\n", telemetry.to_json(2)));
        }
        out.push_str("  \"artifacts\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"artifact\": {}, ", jsonio::escape(&r.name)));
            out.push_str(&format!("\"status\": \"{}\", ", r.status()));
            out.push_str(&format!(
                "\"duration_ms\": {:.3}, ",
                r.duration.as_secs_f64() * 1e3
            ));
            out.push_str(&format!("\"worker\": {}, ", r.worker));
            out.push_str(&format!("\"attempts\": {}, ", r.attempts));
            out.push_str(&format!("\"timed_out\": {}", r.timed_out));
            match &r.outcome {
                Ok(text) => {
                    out.push_str(&format!(", \"bytes\": {}", text.len()));
                    out.push_str(&format!(
                        ", \"digest\": \"fnv1a:{:016x}\"",
                        fnv1a64(text.as_bytes())
                    ));
                }
                Err(e) => out.push_str(&format!(", \"error\": {}", jsonio::escape(&e.to_string()))),
            }
            out.push('}');
            if i + 1 < self.records.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One configured engine run: the builder consolidating the former
/// `run` / `run_with_policy` / `run_with_hooks` free functions behind a
/// single entry point that `repro`, the `nanopowerd` service, and the
/// tests all share.
///
/// Defaults: all available cores, [`RunPolicy::default`] (no deadline,
/// no retries), no cancel token, no observer. Every knob is optional:
///
/// ```
/// use nanopower::engine::{CancelToken, Job, RunPolicy, Session};
/// use std::time::Duration;
///
/// let jobs = vec![
///     Job::new("first", || Ok("one\n".into())),
///     Job::new("second", || Ok("two\n".into())),
/// ];
/// let token = CancelToken::new();
/// let report = Session::new(jobs)
///     .workers(2)
///     .policy(RunPolicy {
///         deadline: Some(Duration::from_secs(30)),
///         ..RunPolicy::default()
///     })
///     .cancel(token)
///     .on_record(|index, record| {
///         // Fires on the worker thread as each record becomes final.
///         assert!(index < 2 && record.is_ok());
///     })
///     .run();
/// assert!(report.failures().is_empty());
/// assert_eq!(report.records.len(), 2);
/// ```
///
/// The determinism contract of the module holds regardless of the
/// configuration: [`RunReport::records`] is byte-identical across worker
/// counts; only telemetry varies.
pub struct Session {
    jobs: Vec<Job>,
    workers: usize,
    policy: RunPolicy,
    cancel: Option<CancelToken>,
    on_record: Option<RecordObserver>,
}

impl Session {
    /// A session over `jobs` with default workers (all available cores)
    /// and policy, no cancel token and no observer.
    pub fn new(jobs: Vec<Job>) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Session {
            jobs,
            workers: cores,
            policy: RunPolicy::default(),
            cancel: None,
            on_record: None,
        }
    }

    /// Sets the worker-thread count. Clamped to `1..=jobs.len()` when the
    /// run starts (an empty job list spawns nothing).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the failure-handling [`RunPolicy`] (per-attempt deadline,
    /// transient-job retries, backoff).
    #[must_use]
    pub fn policy(mut self, policy: RunPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a cooperative [`CancelToken`]: cancelling it makes
    /// workers stop claiming jobs, drain what is in flight, and record
    /// the never-started jobs as [`Error::Cancelled`].
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Installs a completion observer, called with
    /// `(submission_index, record)` the moment each job's record becomes
    /// final — including the `Cancelled` placeholder records a cancelled
    /// run synthesizes for jobs that never started, so journals and
    /// service response streams cover every submitted job. It runs on the
    /// worker threads, concurrently; the observer serializes its own
    /// writes.
    #[must_use]
    pub fn on_record(
        mut self,
        observer: impl Fn(usize, &JobRecord) + Send + Sync + 'static,
    ) -> Self {
        self.on_record = Some(Arc::new(observer));
        self
    }

    /// Executes the session and collects the [`RunReport`].
    ///
    /// - **Deadline.** Each attempt runs on a watchdog: if it exceeds
    ///   `policy.deadline`, the job is recorded as
    ///   [`Error::DeadlineExceeded`] with `timed_out` set, and the worker
    ///   claims the next job. The expired attempt keeps running on a
    ///   detached thread until it finishes on its own; its result is
    ///   discarded. Deadline expiry is terminal — it is never retried.
    /// - **Retry.** Jobs flagged [`Job::transient`] get up to
    ///   `policy.retries` extra attempts after an error or panic,
    ///   sleeping `policy.backoff` (doubling each retry) in between.
    /// - **Cancellation.** When the cancel token fires, workers stop
    ///   claiming jobs and drain whatever is in flight; unclaimed jobs
    ///   get [`Error::Cancelled`] records (observed like any other) and
    ///   the report is marked [`RunReport::interrupted`]. A cancelled
    ///   run also skips pending retries and their backoff sleeps.
    pub fn run(self) -> RunReport {
        let Session {
            jobs,
            workers,
            policy,
            cancel,
            on_record,
        } = self;
        run_session(jobs, workers, policy, cancel.as_ref(), on_record.as_ref())
    }
}

/// The engine proper — the body behind [`Session::run`].
fn run_session(
    jobs: Vec<Job>,
    workers: usize,
    policy: RunPolicy,
    cancel: Option<&CancelToken>,
    on_record: Option<&RecordObserver>,
) -> RunReport {
    let total = jobs.len();
    let start = Instant::now();
    // Telemetry propagates from the calling thread onto every worker:
    // capture the collector (if one is installed) here, install a clone
    // inside each spawned worker. All instrumentation below is a no-op
    // when `collector` is `None`.
    let collector = np_telemetry::current();
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    if total == 0 {
        return RunReport {
            records: Vec::new(),
            workers: 0,
            total_wall: start.elapsed(),
            telemetry: collector.map(|c| c.summary()),
            interrupted: cancelled(),
            replayed: 0,
        };
    }
    let workers = workers.clamp(1, total);
    // Split the machine between engine workers and the optimizer's
    // scoring workers: with W workers each running jobs that may call
    // `np_opt::optimize_parallel`, give every job cores/W scoring threads
    // so the two layers of parallelism don't oversubscribe. Restored
    // when the run ends.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let _scoring_budget = np_opt::parallel::scoped_thread_budget((cores / workers).max(1));
    let run_span = np_telemetry::span("engine.run");
    // Slots the workers take jobs from; `next` hands out indices in
    // submission order.
    let queue: Mutex<(usize, Vec<Option<Job>>)> =
        Mutex::new((0, jobs.into_iter().map(Some).collect()));
    let records: Mutex<Vec<Option<JobRecord>>> = Mutex::new((0..total).map(|_| None).collect());

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let queue = &queue;
            let records = &records;
            let policy = &policy;
            let collector = &collector;
            scope.spawn(move || {
                let _telemetry = collector.as_ref().map(np_telemetry::install);
                let _worker_span = np_telemetry::span("engine.worker");
                loop {
                    let (index, job) = {
                        let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
                        let index = q.0;
                        // A cancelled run stops claiming: everything still
                        // in the queue is drained to Cancelled records
                        // after the scope ends.
                        if index >= total || cancel.is_some_and(CancelToken::is_cancelled) {
                            return;
                        }
                        q.0 += 1;
                        // Indices are handed out exactly once under the lock,
                        // so the slot is always still populated.
                        match q.1[index].take() {
                            Some(job) => (index, job),
                            None => continue,
                        }
                    };
                    // How long the job sat in the queue before a worker
                    // claimed it (submission-to-claim, not attempt time).
                    np_telemetry::value("engine.queue_wait_us", start.elapsed().as_micros() as f64);
                    let record = run_one(job, worker, policy, cancel);
                    if let Some(on_record) = on_record {
                        on_record(index, &record);
                    }
                    records.lock().unwrap_or_else(PoisonError::into_inner)[index] = Some(record);
                }
            });
        }
    });
    drop(run_span);
    let interrupted = cancelled();

    // Jobs never claimed by a worker (cancellation) are still sitting in
    // their queue slots: drain them into Cancelled placeholder records so
    // the report covers every submitted job by name. The placeholders go
    // through `on_record` like any executed job, so journals and service
    // response streams see every submitted job without synthesizing
    // their own — the counters stay consistent even when a run is
    // cancelled before its first job starts.
    let mut leftover = queue.into_inner().unwrap_or_else(PoisonError::into_inner).1;
    let mut cancelled_jobs = 0u64;
    let records: Vec<JobRecord> = records
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.unwrap_or_else(|| match leftover[i].take() {
                Some(job) => {
                    cancelled_jobs += 1;
                    let record = JobRecord {
                        name: job.name,
                        outcome: Err(Error::Cancelled),
                        duration: Duration::ZERO,
                        worker: 0,
                        attempts: 0,
                        timed_out: false,
                    };
                    if let Some(on_record) = on_record {
                        on_record(i, &record);
                    }
                    record
                }
                // Every claimed index stores a record before its worker
                // exits; a hole here means a worker died outside
                // catch_unwind.
                None => JobRecord {
                    name: format!("job-{i}"),
                    outcome: Err(Error::Panic("worker died before recording".into())),
                    duration: Duration::ZERO,
                    worker: 0,
                    attempts: 0,
                    timed_out: false,
                },
            })
        })
        .collect();
    if cancelled_jobs > 0 {
        np_telemetry::counter("engine.cancelled_jobs", cancelled_jobs);
    }
    if interrupted {
        np_telemetry::counter("engine.interrupted", 1);
    }
    let telemetry = collector.map(|c| c.summary());
    RunReport {
        records,
        workers,
        total_wall: start.elapsed(),
        telemetry,
        interrupted,
        replayed: 0,
    }
}

/// Executes one job to completion under the policy: attempt, watchdog,
/// retry loop. A cancelled run finishes the in-flight attempt (drain)
/// but skips further retries and their backoff sleeps.
fn run_one(job: Job, worker: usize, policy: &RunPolicy, cancel: Option<&CancelToken>) -> JobRecord {
    let job_span = np_telemetry::span(job.name.clone());
    let job_start = Instant::now();
    let max_attempts = policy.max_attempts(job.transient);
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let mut attempts = 0u32;
    let (outcome, timed_out) = loop {
        attempts += 1;
        let attempt_span = np_telemetry::span("engine.attempt");
        let (outcome, timed_out) = attempt(&job.runner, policy.deadline, cancel);
        drop(attempt_span);
        if outcome.is_ok() || timed_out || attempts >= max_attempts || cancelled() {
            break (outcome, timed_out);
        }
        std::thread::sleep(policy.backoff_before(attempts));
    };
    drop(job_span);
    np_telemetry::counter("engine.jobs", 1);
    if attempts > 1 {
        np_telemetry::counter("engine.retries", u64::from(attempts - 1));
    }
    if timed_out {
        np_telemetry::counter("engine.deadline_exceeded", 1);
    }
    JobRecord {
        name: job.name,
        outcome,
        duration: job_start.elapsed(),
        worker,
        attempts,
        timed_out,
    }
}

/// One attempt of the runner, panic-isolated, with an optional deadline.
/// Returns the outcome and whether the deadline fired.
///
/// The watchdog wait is sliced so a cancelled run is observable while it
/// drains: cancellation never abandons the in-flight attempt (that is
/// the drain guarantee), but the first slice that sees the token
/// cancelled records an `engine.cancel_drain` counter, so interrupted
/// runs show how many attempts were drained rather than torn down.
fn attempt(
    runner: &Arc<dyn Fn() -> Result<String, Error> + Send + Sync>,
    deadline: Option<Duration>,
    cancel: Option<&CancelToken>,
) -> (Result<String, Error>, bool) {
    let Some(limit) = deadline else {
        return (guarded_call(runner), false);
    };
    let (tx, rx) = mpsc::channel();
    let sacrificial = Arc::clone(runner);
    // The sacrificial thread has no thread-local collector of its own,
    // so re-install the caller's — otherwise solver telemetry vanishes
    // whenever a deadline is in force.
    let collector = np_telemetry::current();
    let spawned = std::thread::Builder::new()
        .name("np-engine-watchdog".into())
        .spawn(move || {
            let _telemetry = collector.as_ref().map(np_telemetry::install);
            // The receiver may be long gone if the deadline fired; a
            // closed channel just drops the late result.
            let _ = tx.send(guarded_call(&sacrificial));
        });
    match spawned {
        Ok(_) => {
            let deadline_at = Instant::now() + limit;
            let mut drain_counted = false;
            loop {
                let remaining = deadline_at.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return (Err(Error::DeadlineExceeded { limit }), true);
                }
                let slice = remaining.min(Duration::from_millis(50));
                match rx.recv_timeout(slice) {
                    Ok(outcome) => return (outcome, false),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if !drain_counted && cancel.is_some_and(CancelToken::is_cancelled) {
                            np_telemetry::counter("engine.cancel_drain", 1);
                            drain_counted = true;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        // The sacrificial thread died without sending —
                        // only possible if its send itself panicked;
                        // treat as a deadline-free failure.
                        return (
                            Err(Error::Panic("watchdog channel disconnected".into())),
                            false,
                        );
                    }
                }
            }
        }
        // Thread spawn failed (resource exhaustion): degrade to an
        // un-watched inline attempt rather than fail the job outright.
        Err(_) => (guarded_call(runner), false),
    }
}

/// Invokes the runner with panics converted to [`Error::Panic`].
fn guarded_call(
    runner: &Arc<dyn Fn() -> Result<String, Error> + Send + Sync>,
) -> Result<String, Error> {
    catch_unwind(AssertUnwindSafe(|| runner()))
        .unwrap_or_else(|p| Err(Error::Panic(panic_message(p.as_ref()))))
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// FNV-1a, 64-bit: the digest backing [`JobRecord::digest`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1000_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fixed_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| Job::new(format!("job{i}"), move || Ok(format!("output {i}\n"))))
            .collect()
    }

    #[test]
    fn parallel_order_matches_serial() {
        let serial = Session::new(fixed_jobs(12)).workers(1).run();
        let parallel = Session::new(fixed_jobs(12)).workers(4).run();
        let texts = |r: &RunReport| -> Vec<String> {
            r.records
                .iter()
                .map(|j| j.outcome.clone().unwrap())
                .collect()
        };
        assert_eq!(texts(&serial), texts(&parallel));
        assert_eq!(parallel.workers, 4);
        assert!(parallel.failures().is_empty());
    }

    #[test]
    fn failures_do_not_stop_the_run() {
        let jobs = vec![
            Job::new("good", || Ok("fine\n".into())),
            Job::new("bad", || Err(Error::InvalidParameter("broken".into()))),
            Job::new("panicky", || panic!("boom")),
            Job::new("after", || Ok("still ran\n".into())),
        ];
        let report = Session::new(jobs).workers(2).run();
        assert_eq!(report.records.len(), 4);
        assert!(!report.failures().is_empty());
        assert_eq!(report.failures().len(), 2);
        assert!(report.records[3].is_ok(), "jobs after a failure still run");
        let summary = report.error_summary();
        assert!(summary.contains("2 of 4"), "{summary}");
        assert!(
            summary.contains("boom"),
            "panic message surfaces: {summary}"
        );
    }

    #[test]
    fn worker_attribution_and_clamping() {
        let report = Session::new(fixed_jobs(3)).workers(64).run();
        assert_eq!(report.workers, 3, "workers clamp to job count");
        assert!(report.records.iter().all(|r| r.worker < 3));
        let report = Session::new(fixed_jobs(3)).workers(0).run();
        assert_eq!(report.workers, 1, "zero workers clamp to one");
    }

    #[test]
    fn empty_run_is_empty() {
        let report = Session::new(Vec::new()).workers(8).run();
        assert!(report.records.is_empty());
        assert_eq!(report.workers, 0);
        assert!(report.failures().is_empty());
        assert!(report.error_summary().is_empty());
    }

    #[test]
    fn digests_fingerprint_output() {
        let a = Session::new(fixed_jobs(2)).workers(1).run();
        let b = Session::new(fixed_jobs(2)).workers(2).run();
        assert_eq!(a.records[0].digest(), b.records[0].digest());
        assert_ne!(a.records[0].digest(), a.records[1].digest());
        assert!(a.records[0].digest().unwrap().starts_with("fnv1a:"));
    }

    #[test]
    fn json_report_shape() {
        let jobs = vec![
            Job::new("ok\"quote", || Ok("text".into())),
            Job::new("bad", || Err(Error::InvalidParameter("x\ny".into()))),
        ];
        let json = Session::new(jobs).workers(2).run().to_json();
        assert!(json.contains("\"schema\": \"nanopower-run-report/v1\""));
        assert!(json.contains("\"artifact\": \"ok\\\"quote\""), "{json}");
        assert!(json.contains("\"status\": \"ok\""));
        assert!(json.contains("\"status\": \"error\""));
        assert!(json.contains("\\n"), "newlines escaped in error strings");
        assert!(json.contains("\"failures\": 1"));
        assert!(json.contains("\"duration_ms\""));
        assert!(json.contains("\"digest\": \"fnv1a:"));
        assert!(json.contains("\"attempts\": 1"));
        assert!(json.contains("\"timed_out\": false"));
    }

    #[test]
    fn deadline_marks_hung_job_without_stalling_queue() {
        let jobs = vec![
            Job::new("hang", || {
                std::thread::sleep(Duration::from_secs(30));
                Ok("never seen".into())
            }),
            Job::new("quick", || Ok("done\n".into())),
        ];
        let policy = RunPolicy {
            deadline: Some(Duration::from_millis(50)),
            ..RunPolicy::default()
        };
        let start = Instant::now();
        let report = Session::new(jobs).workers(1).policy(policy).run();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "queue must not wait for the hung job"
        );
        let hang = &report.records[0];
        assert!(hang.timed_out);
        assert!(matches!(hang.outcome, Err(Error::DeadlineExceeded { .. })));
        assert!(report.records[1].is_ok(), "queue kept draining");
        assert!(report.to_json().contains("\"timed_out\": true"));
    }

    #[test]
    fn transient_jobs_retry_until_success() {
        static FAILS: AtomicU32 = AtomicU32::new(0);
        FAILS.store(0, Ordering::SeqCst);
        let jobs = vec![Job::new("flaky", || {
            if FAILS.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(Error::InvalidParameter("transient glitch".into()))
            } else {
                Ok("recovered\n".into())
            }
        })
        .transient(true)];
        let policy = RunPolicy {
            retries: 3,
            backoff: Duration::from_millis(1),
            ..RunPolicy::default()
        };
        let report = Session::new(jobs).workers(1).policy(policy).run();
        let r = &report.records[0];
        assert!(r.is_ok(), "{:?}", r.outcome);
        assert_eq!(r.attempts, 3, "two failures then success");
        assert!(report.to_json().contains("\"attempts\": 3"));
    }

    #[test]
    fn non_transient_jobs_never_retry() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        CALLS.store(0, Ordering::SeqCst);
        let jobs = vec![Job::new("fails", || {
            CALLS.fetch_add(1, Ordering::SeqCst);
            Err(Error::InvalidParameter("always".into()))
        })];
        let policy = RunPolicy {
            retries: 5,
            backoff: Duration::from_millis(1),
            ..RunPolicy::default()
        };
        let report = Session::new(jobs).workers(1).policy(policy).run();
        assert_eq!(CALLS.load(Ordering::SeqCst), 1);
        assert_eq!(report.records[0].attempts, 1);
    }

    #[test]
    fn retries_exhaust_and_report_last_error() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        CALLS.store(0, Ordering::SeqCst);
        let jobs = vec![Job::new("doomed", || {
            CALLS.fetch_add(1, Ordering::SeqCst);
            Err(Error::InvalidParameter("permanent".into()))
        })
        .transient(true)];
        let policy = RunPolicy {
            retries: 2,
            backoff: Duration::from_millis(1),
            ..RunPolicy::default()
        };
        let report = Session::new(jobs).workers(1).policy(policy).run();
        assert_eq!(CALLS.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");
        let r = &report.records[0];
        assert_eq!(r.attempts, 3);
        assert!(!r.is_ok());
        assert!(report.error_summary().contains("after 3 attempts"));
    }

    #[test]
    fn deadline_expiry_is_terminal_even_for_transient_jobs() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        CALLS.store(0, Ordering::SeqCst);
        let jobs = vec![Job::new("slow", || {
            CALLS.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_secs(30));
            Ok("never".into())
        })
        .transient(true)];
        let policy = RunPolicy {
            deadline: Some(Duration::from_millis(40)),
            retries: 5,
            backoff: Duration::from_millis(1),
        };
        let report = Session::new(jobs).workers(1).policy(policy).run();
        let r = &report.records[0];
        assert_eq!(r.attempts, 1, "no retry after a deadline expiry");
        assert!(r.timed_out);
        assert_eq!(CALLS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panicking_transient_job_retries() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        CALLS.store(0, Ordering::SeqCst);
        let jobs = vec![Job::new("panics-once", || {
            if CALLS.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt explodes");
            }
            Ok("second attempt fine\n".into())
        })
        .transient(true)];
        let policy = RunPolicy {
            retries: 1,
            backoff: Duration::from_millis(1),
            ..RunPolicy::default()
        };
        let report = Session::new(jobs).workers(1).policy(policy).run();
        let r = &report.records[0];
        assert!(r.is_ok(), "{:?}", r.outcome);
        assert_eq!(r.attempts, 2);
    }

    #[test]
    fn backoff_doubles() {
        let p = RunPolicy {
            backoff: Duration::from_millis(10),
            ..RunPolicy::default()
        };
        assert_eq!(p.backoff_before(1), Duration::from_millis(10));
        assert_eq!(p.backoff_before(2), Duration::from_millis(20));
        assert_eq!(p.backoff_before(3), Duration::from_millis(40));
    }

    #[test]
    fn determinism_holds_under_policy() {
        let mk = || {
            (0..8)
                .map(|i| {
                    Job::new(format!("j{i}"), move || Ok(format!("payload {i}\n"))).transient(true)
                })
                .collect::<Vec<_>>()
        };
        let policy = RunPolicy {
            deadline: Some(Duration::from_secs(5)),
            retries: 2,
            backoff: Duration::from_millis(1),
        };
        let a = Session::new(mk()).workers(1).policy(policy).run();
        let b = Session::new(mk()).workers(4).policy(policy).run();
        let texts = |r: &RunReport| -> Vec<_> {
            r.records
                .iter()
                .map(|j| (j.name.clone(), j.outcome.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(&a), texts(&b));
    }

    #[test]
    fn solver_thread_budget_is_capped_inside_jobs() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let jobs = (0..4)
            .map(|i| {
                let seen = Arc::clone(&seen);
                Job::new(format!("probe{i}"), move || {
                    seen.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(np_opt::parallel::thread_budget());
                    Ok("ok\n".into())
                })
            })
            .collect();
        let report = Session::new(jobs).workers(2).run();
        assert!(report.failures().is_empty());
        // The budget is process-global, so concurrent engine runs from
        // other tests may briefly adjust it; assert the invariant (a
        // worker never sees more scoring threads than the machine has)
        // rather than the exact cores/workers split.
        let seen = seen.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(seen.len(), 4);
        for &budget in seen.iter() {
            assert!(
                (1..=cores).contains(&budget),
                "budget {budget} vs {cores} cores"
            );
        }
    }

    #[test]
    fn telemetry_absent_without_collector() {
        let report = Session::new(fixed_jobs(2)).workers(2).run();
        assert!(report.telemetry.is_none());
        assert!(!report.to_json().contains("\"telemetry\""));
    }

    #[test]
    fn telemetry_captures_spans_and_counters_across_workers() {
        let c = np_telemetry::Collector::new();
        let report = {
            let _g = np_telemetry::install(&c);
            Session::new(fixed_jobs(6)).workers(3).run()
        };
        let summary = report.telemetry.as_ref().expect("collector was installed");
        let counter = |name: &str| {
            summary
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("engine.jobs"), Some(6));
        let span_names: Vec<&str> = summary.spans.iter().map(|(n, _)| n.as_str()).collect();
        assert!(span_names.contains(&"engine.run"), "{span_names:?}");
        assert!(span_names.contains(&"engine.worker"));
        assert!(span_names.contains(&"engine.attempt"));
        assert!(span_names.contains(&"job0"), "per-job span by name");
        let attempts = summary
            .spans
            .iter()
            .find(|(n, _)| n == "engine.attempt")
            .unwrap();
        assert_eq!(attempts.1.count, 6, "one attempt per job");
        assert!(summary
            .values
            .iter()
            .any(|(n, _)| n == "engine.queue_wait_us"));
        let json = report.to_json();
        assert!(json.contains("\"telemetry\""), "{json}");
        assert!(json.contains("\"engine.jobs\": 6"), "{json}");
    }

    #[test]
    fn telemetry_counts_retries_and_deadline_expiries() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        CALLS.store(0, Ordering::SeqCst);
        let jobs = vec![
            Job::new("flaky", || {
                if CALLS.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err(Error::InvalidParameter("glitch".into()))
                } else {
                    Ok("ok\n".into())
                }
            })
            .transient(true),
            Job::new("hang", || {
                std::thread::sleep(Duration::from_secs(30));
                Ok("never".into())
            }),
        ];
        let policy = RunPolicy {
            deadline: Some(Duration::from_millis(50)),
            retries: 2,
            backoff: Duration::from_millis(1),
        };
        let c = np_telemetry::Collector::new();
        let report = {
            let _g = np_telemetry::install(&c);
            Session::new(jobs).workers(2).policy(policy).run()
        };
        let summary = report.telemetry.expect("collector was installed");
        let counter = |name: &str| {
            summary
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(counter("engine.retries"), Some(1));
        assert_eq!(counter("engine.deadline_exceeded"), Some(1));
    }

    #[test]
    fn cancellation_drains_in_flight_and_marks_the_rest() {
        let token = CancelToken::new();
        let trigger = token.clone();
        let mut jobs = vec![Job::new("first", move || {
            // Cancel mid-run: this job is in flight, so it drains to
            // completion; everything behind it must not start.
            trigger.cancel();
            Ok("finished despite cancel\n".into())
        })];
        for i in 1..4 {
            jobs.push(Job::new(format!("skipped{i}"), move || {
                Ok(format!("should never run {i}\n"))
            }));
        }
        let report = Session::new(jobs)
            .workers(1)
            .policy(RunPolicy::default())
            .cancel(token)
            .run();
        assert!(report.interrupted);
        assert!(report.records[0].is_ok(), "in-flight job drained");
        for r in &report.records[1..] {
            assert_eq!(r.outcome, Err(Error::Cancelled), "{}", r.name);
            assert_eq!(r.attempts, 0);
            assert_eq!(r.status(), "cancelled");
        }
        let json = report.to_json();
        assert!(json.contains("\"interrupted\": true"), "{json}");
        assert!(json.contains("\"status\": \"cancelled\""), "{json}");
    }

    #[test]
    fn uncancelled_runs_report_uninterrupted() {
        let report = Session::new(fixed_jobs(3))
            .workers(2)
            .policy(RunPolicy::default())
            .cancel(CancelToken::new())
            .run();
        assert!(!report.interrupted);
        assert!(report.failures().is_empty());
        assert!(report.to_json().contains("\"interrupted\": false"));
    }

    #[test]
    fn cancellation_skips_pending_retries() {
        let token = CancelToken::new();
        let trigger = token.clone();
        static CALLS: AtomicU32 = AtomicU32::new(0);
        CALLS.store(0, Ordering::SeqCst);
        let jobs = vec![Job::new("flaky-cancelled", move || {
            CALLS.fetch_add(1, Ordering::SeqCst);
            trigger.cancel();
            Err(Error::InvalidParameter("always fails".into()))
        })
        .transient(true)];
        let policy = RunPolicy {
            retries: 5,
            backoff: Duration::from_secs(30), // would stall the test if slept
            ..RunPolicy::default()
        };
        let start = Instant::now();
        let report = Session::new(jobs)
            .workers(1)
            .policy(policy)
            .cancel(token)
            .run();
        assert!(start.elapsed() < Duration::from_secs(5), "no backoff sleep");
        assert_eq!(CALLS.load(Ordering::SeqCst), 1, "no retry after cancel");
        assert_eq!(report.records[0].attempts, 1);
        assert!(report.interrupted);
    }

    #[test]
    fn on_record_hook_fires_once_per_job_as_it_completes() {
        let seen: Arc<Mutex<Vec<(usize, String, bool)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut jobs = fixed_jobs(5);
        jobs.push(Job::new("bad", || {
            Err(Error::InvalidParameter("broken".into()))
        }));
        let report = Session::new(jobs)
            .workers(3)
            .policy(RunPolicy::default())
            .on_record(move |index, record: &JobRecord| {
                sink.lock().unwrap_or_else(PoisonError::into_inner).push((
                    index,
                    record.name.clone(),
                    record.is_ok(),
                ));
            })
            .run();
        assert_eq!(report.records.len(), 6);
        let mut seen = seen.lock().unwrap_or_else(PoisonError::into_inner).clone();
        seen.sort();
        let indices: Vec<usize> = seen.iter().map(|(i, _, _)| *i).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4, 5], "every job observed once");
        assert!(
            seen.iter().any(|(_, name, ok)| name == "bad" && !ok),
            "failures are observed too"
        );
    }

    #[test]
    fn cancelled_placeholders_fire_the_observer() {
        // A run cancelled before any job starts must still observe every
        // submitted job — the journal/service counters depend on it.
        let token = CancelToken::new();
        token.cancel();
        let seen: Arc<Mutex<Vec<(usize, String)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let report = Session::new(fixed_jobs(4))
            .workers(2)
            .cancel(token)
            .on_record(move |index, record: &JobRecord| {
                assert_eq!(record.status(), "cancelled");
                sink.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push((index, record.name.clone()));
            })
            .run();
        assert!(report.interrupted);
        assert_eq!(report.records.len(), 4);
        let mut seen = seen.lock().unwrap_or_else(PoisonError::into_inner).clone();
        seen.sort();
        assert_eq!(
            seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "every never-started job observed exactly once"
        );
        for (i, name) in &seen {
            assert_eq!(name, &format!("job{i}"));
        }
    }

    #[test]
    fn session_defaults_cover_cores_policy_and_hooks() {
        let session = Session::new(fixed_jobs(2));
        assert!(session.workers >= 1);
        assert_eq!(session.policy, RunPolicy::default());
        assert!(session.cancel.is_none());
        assert!(session.on_record.is_none());
        assert!(session.run().failures().is_empty());
    }

    #[test]
    fn telemetry_reaches_through_the_deadline_watchdog() {
        // Solver spans opened inside a job must survive even when the
        // job runs on the watchdog's sacrificial thread.
        let jobs = vec![Job::new("instrumented", || {
            let _s = np_telemetry::span("inner.work");
            np_telemetry::counter("inner.iterations", 11);
            Ok("done\n".into())
        })];
        let policy = RunPolicy {
            deadline: Some(Duration::from_secs(5)),
            ..RunPolicy::default()
        };
        let c = np_telemetry::Collector::new();
        let report = {
            let _g = np_telemetry::install(&c);
            Session::new(jobs).workers(1).policy(policy).run()
        };
        let summary = report.telemetry.expect("collector was installed");
        assert!(summary.spans.iter().any(|(n, _)| n == "inner.work"));
        assert!(summary
            .counters
            .iter()
            .any(|(n, v)| n == "inner.iterations" && *v == 11));
    }
}
