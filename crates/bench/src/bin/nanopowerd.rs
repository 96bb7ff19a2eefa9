//! `nanopowerd` — the persistent analysis service.
//!
//! A zero-dependency JSON-lines server (protocol: `nanopowerd/v1`, see
//! `nanopower::proto`) that keeps the artifact registry hot behind a
//! unix socket (or `--tcp addr`): a bounded, optionally spill-backed
//! cross-request artifact memo, bounded admission control with typed
//! `busy` backpressure and typed `overloaded` load shedding,
//! per-connection write deadlines so a stalled client cannot wedge the
//! shared record stream, a max-connections gate, per-request deadlines
//! wired to the engine's graceful cancellation, and a `health` request
//! that fails while the oldest admitted request is older than
//! `--watchdog-ms`.
//!
//! Untrusted scenario specs (`nanopower::spec`) enter through a
//! hardened pipeline: field-validated parsing with typed `invalid_spec`
//! rejections, a static cost gate (`--max-spec-cost`) answering typed
//! `too_expensive` before any work, and a bounded panic quarantine
//! (`--quarantine-max`) that turns a spec-induced worker panic into a
//! typed `panicked` record and rejects the same digest O(1) afterwards.
//!
//! The connection lifecycle is event-driven: the acceptor blocks in
//! `accept` and each handler blocks in its read, so a connection is
//! greeted the moment it arrives. `shutdown` wakes every waiter
//! explicitly: the acceptor by shutting down its listening socket
//! (`np_bench::accept`) and each idle handler by shutting down its
//! connection's read half. A request already in flight still finishes
//! and writes its records and report; then the process exits.
//!
//! ```text
//! nanopowerd serve --socket /tmp/nanopower.sock [--tcp 127.0.0.1:7070]
//!            [--workers N] [--max-inflight N] [--queue-depth N]
//!            [--max-connections N] [--shed-ms N] [--write-timeout-ms N]
//!            [--watchdog-ms N] [--memo-spill PATH] [--memo-max-entries N]
//!            [--memo-max-bytes N] [--max-spec-cost N] [--quarantine-max N]
//!            [--hold-ms N]
//! nanopowerd load  --socket PATH|--tcp ADDR [--connections N] [--requests N]
//!            [--csv] [--quick] [--seed N]
//! nanopowerd stats --socket PATH|--tcp ADDR
//! nanopowerd health --socket PATH|--tcp ADDR
//! nanopowerd shutdown --socket PATH|--tcp ADDR
//! ```
//!
//! (There is also a hidden `chaos-proxy` subcommand exposing
//! `np_bench::chaos` for the chaos-serve CI job.)

use nanopower::engine::{CancelToken, Job, JobRecord, RunReport, Session};
use nanopower::grid::mesh::MeshCache;
use nanopower::proto::{
    HealthMsg, Hello, RecordMsg, ReportMsg, Request, Response, RunRequest, StatsMsg,
};
use nanopower::roadmap::TechNode;
use nanopower::service::{
    Admission, AdmissionGate, ArtifactMemo, InFlight, InFlightClaim, MemoConfig, MemoEntry,
    Quarantine, ServiceCounters,
};
use nanopower::spec::{job_name_for, GridSpec, ScenarioSpec, DEFAULT_COST_BUDGET};
use nanopower::Error;
use np_bench::accept::{accept_until, Listener, Stop};
use np_bench::registry;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        Some("stats") => cmd_oneshot(&args[1..], Request::Stats),
        Some("health") => cmd_oneshot(&args[1..], Request::Health),
        Some("shutdown") => cmd_oneshot(&args[1..], Request::Shutdown),
        #[cfg(unix)]
        Some("chaos-proxy") => cmd_chaos_proxy(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
nanopowerd - persistent nanopower analysis service (nanopowerd/v1)

USAGE:
    nanopowerd serve    --socket PATH | --tcp ADDR [serve options]
    nanopowerd load     --socket PATH | --tcp ADDR [load options]
    nanopowerd stats    --socket PATH | --tcp ADDR
    nanopowerd health   --socket PATH | --tcp ADDR
    nanopowerd shutdown --socket PATH | --tcp ADDR

SERVE OPTIONS:
    --workers N            engine workers per request (default: all cores)
    --max-inflight N       concurrent requests executing (default: 2)
    --queue-depth N        requests allowed to wait for a slot (default: 8)
    --max-connections N    concurrent connections served (default: 64)
    --shed-ms N            queue-wait budget before a typed `overloaded`
                           response is shed (default: 2000)
    --write-timeout-ms N   per-connection write deadline; a client that
                           stalls past it stops receiving (default: 2000)
    --watchdog-ms N        oldest-inflight age at which the health check
                           reports not ready (default: 30000)
    --memo-spill PATH      persist the artifact memo to an fsync'd spill
                           file and rehydrate it on restart
    --memo-max-entries N   memo entry cap, LRU-evicted (default: 256)
    --memo-max-bytes N     memo byte cap, LRU-evicted (default: 67108864)
    --max-spec-cost N      cost-unit budget per request for scenario
                           specs; pricier requests get a typed
                           `too_expensive` before any work runs
                           (default: 100000)
    --quarantine-max N     panic-quarantine capacity, LRU-evicted
                           (default: 1024)
    --hold-ms N            hold each admission slot N extra ms (test hook)

LOAD OPTIONS:
    --connections N   concurrent client connections (default: 4)
    --requests N      requests per connection (default: 25)
    --csv             request CSV artifact forms
    --quick           small fast run (2 connections x 5 requests)
    --seed N          mixed-workload seed: which requests carry scenario
                      specs instead of registry names (default: 1)
";

/// Where the daemon listens / the client connects.
#[derive(Debug, Clone)]
enum Endpoint {
    #[cfg(unix)]
    Unix(String),
    Tcp(String),
}

/// Pulls `--socket`/`--tcp` out of `args`, returning the endpoint and
/// the remaining arguments.
fn parse_endpoint(args: &[String]) -> Result<(Endpoint, Vec<String>), String> {
    let mut endpoint = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                let path = it.next().ok_or("--socket needs a path")?;
                #[cfg(unix)]
                {
                    endpoint = Some(Endpoint::Unix(path.clone()));
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    return Err("--socket requires a unix platform; use --tcp".into());
                }
            }
            "--tcp" => {
                let addr = it.next().ok_or("--tcp needs an address")?;
                endpoint = Some(Endpoint::Tcp(addr.clone()));
            }
            _ => rest.push(arg.clone()),
        }
    }
    let endpoint = endpoint.ok_or("one of --socket PATH or --tcp ADDR is required")?;
    Ok((endpoint, rest))
}

fn parse_flag_value<T: std::str::FromStr>(
    rest: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match rest.iter().position(|a| a == flag) {
        Some(i) => rest
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("{flag} value is not valid")),
        None => Ok(default),
    }
}

fn parse_flag_opt(rest: &[String], flag: &str) -> Result<Option<String>, String> {
    match rest.iter().position(|a| a == flag) {
        Some(i) => rest
            .get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
        None => Ok(None),
    }
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

/// Everything the connection handlers share.
struct ServerState {
    memo: ArtifactMemo,
    /// Memo keys being rendered right now: an identical request waits
    /// for that render instead of repeating it.
    inflight: Arc<InFlight>,
    /// Unit bump-cell worst drops by mesh side, shared by every spec grid
    /// leg for the daemon's lifetime. Kept apart from the memo: it holds
    /// at most one number per odd side the spec validation admits.
    mesh: MeshCache,
    gate: AdmissionGate,
    counters: ServiceCounters,
    /// Digests of specs that panicked a worker: repeats are rejected
    /// O(1) with the original panic message, without re-running.
    quarantine: Quarantine,
    /// Per-request cost-unit budget for scenario specs; estimates above
    /// it are answered with a typed `too_expensive` before any work.
    max_spec_cost: u64,
    workers: usize,
    hold_ms: u64,
    /// Queue-wait budget before a run is shed with `overloaded`.
    shed_budget: Duration,
    /// Per-connection write deadline; a client stalled past it is
    /// marked dead and stops receiving.
    write_timeout: Duration,
    /// Oldest-inflight age at which `health` declares the worker pool
    /// stuck.
    watchdog: Duration,
    /// Concurrent-connection cap; excess connections get a typed
    /// rejection line and are closed.
    max_connections: usize,
    /// Connections currently being served.
    connections: AtomicUsize,
    started: Instant,
    /// Requested by `shutdown`; wakes the blocked acceptor.
    stop: Stop,
    /// Each live handler's read-half closer, by connection id: shutdown
    /// ends every blocked read with EOF.
    readers: Mutex<HashMap<u64, ReadCloser>>,
}

/// Shuts down one connection's read half.
type ReadCloser = Box<dyn Fn() + Send>;

impl ServerState {
    fn health(&self) -> HealthMsg {
        let oldest = self.gate.oldest_inflight_age().unwrap_or(Duration::ZERO);
        HealthMsg {
            ready: oldest < self.watchdog && !self.stop.is_requested(),
            inflight: self.gate.inflight() as u64,
            capacity: self.gate.capacity() as u64,
            oldest_inflight_ms: oldest.as_millis() as u64,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            memo_entries: self.memo.len() as u64,
            memo_bytes: self.memo.approx_bytes() as u64,
            spill_active: self.memo.spill_active(),
            shed: self.counters.stats().overloaded,
            quarantine_entries: self.quarantine.len() as u64,
        }
    }

    /// Lists `stream`'s read-half closer under connection `id`; false when
    /// shutdown has begun. The flag is read under the lock shutdown closes
    /// the readers under, so every handler is either closed or told to
    /// stop.
    fn watch_reader<S>(&self, id: u64, stream: &S) -> std::io::Result<bool>
    where
        S: TryCloneStream + Send + 'static,
    {
        let closer = stream.try_clone_stream()?;
        let mut readers = self.readers.lock().unwrap_or_else(PoisonError::into_inner);
        if self.stop.is_requested() {
            return Ok(false);
        }
        readers.insert(
            id,
            Box::new(move || {
                let _ = closer.shutdown_read();
            }),
        );
        Ok(true)
    }

    /// Starts shutdown: sets the flag and wakes the acceptor, and ends
    /// every idle read with EOF. Requests in flight finish; their handlers
    /// then read EOF too.
    fn begin_shutdown(&self) {
        self.stop.request();
        for close in self
            .readers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            close();
        }
    }
}

fn cmd_serve(args: &[String]) -> i32 {
    let (endpoint, rest) = match parse_endpoint(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("nanopowerd serve: {e}");
            return 2;
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let parsed = (|| -> Result<_, String> {
        Ok((
            parse_flag_value(&rest, "--workers", cores)?,
            parse_flag_value(&rest, "--max-inflight", 2usize)?,
            parse_flag_value(&rest, "--queue-depth", 8usize)?,
            parse_flag_value(&rest, "--max-connections", 64usize)?,
            parse_flag_value(&rest, "--shed-ms", 2000u64)?,
            parse_flag_value(&rest, "--write-timeout-ms", 2000u64)?,
            parse_flag_value(&rest, "--watchdog-ms", 30_000u64)?,
            parse_flag_opt(&rest, "--memo-spill")?,
            parse_flag_value(&rest, "--memo-max-entries", 256usize)?,
            parse_flag_value(&rest, "--memo-max-bytes", 64usize << 20)?,
            parse_flag_value(&rest, "--max-spec-cost", DEFAULT_COST_BUDGET)?,
            parse_flag_value(&rest, "--quarantine-max", Quarantine::DEFAULT_MAX)?,
            parse_flag_value(&rest, "--hold-ms", 0u64)?,
        ))
    })();
    let (
        workers,
        max_inflight,
        queue_depth,
        max_connections,
        shed_ms,
        write_timeout_ms,
        watchdog_ms,
        memo_spill,
        memo_max_entries,
        memo_max_bytes,
        max_spec_cost,
        quarantine_max,
        hold_ms,
    ) = match parsed {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("nanopowerd serve: {e}");
            return 2;
        }
    };
    let memo_config = MemoConfig {
        max_entries: memo_max_entries,
        max_bytes: memo_max_bytes,
    };
    let memo = match &memo_spill {
        Some(path) => match ArtifactMemo::with_spill(path, memo_config) {
            Ok((memo, report)) => {
                eprintln!(
                    "nanopowerd: memo spill {path}: {} rehydrated, {} dropped",
                    report.rehydrated, report.dropped
                );
                memo
            }
            Err(e) => {
                eprintln!("nanopowerd serve: {e}");
                return 1;
            }
        },
        None => ArtifactMemo::with_config(memo_config),
    };
    let state = Arc::new(ServerState {
        memo,
        inflight: Arc::new(InFlight::new()),
        mesh: MeshCache::new(),
        gate: AdmissionGate::new(max_inflight, queue_depth),
        counters: ServiceCounters::new(),
        quarantine: Quarantine::new(quarantine_max),
        max_spec_cost,
        workers,
        hold_ms,
        shed_budget: Duration::from_millis(shed_ms),
        write_timeout: Duration::from_millis(write_timeout_ms.max(1)),
        watchdog: Duration::from_millis(watchdog_ms.max(1)),
        max_connections: max_connections.max(1),
        connections: AtomicUsize::new(0),
        started: Instant::now(),
        stop: Stop::new(),
        readers: Mutex::new(HashMap::new()),
    });
    match serve_on(&endpoint, &state) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("nanopowerd serve: {e}");
            state.begin_shutdown();
            1
        }
    }
}

/// Binds the unix listener, probing (instead of clobbering) an existing
/// socket file: a live daemon answers the probe and wins; a stale file
/// left by a killed process refuses it and is unlinked.
#[cfg(unix)]
fn bind_unix(path: &str) -> std::io::Result<std::os::unix::net::UnixListener> {
    use std::os::unix::net::{UnixListener, UnixStream};
    match UnixListener::bind(path) {
        Ok(listener) => Ok(listener),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => match UnixStream::connect(path) {
            Ok(_) => Err(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!("{path}: another daemon is already listening"),
            )),
            Err(_) => {
                eprintln!("nanopowerd: removing stale socket {path}");
                std::fs::remove_file(path)?;
                UnixListener::bind(path)
            }
        },
        Err(e) => Err(e),
    }
}

fn serve_on(endpoint: &Endpoint, state: &Arc<ServerState>) -> std::io::Result<()> {
    let mut handles = Vec::new();
    let served = match endpoint {
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            use std::os::unix::fs::MetadataExt;
            let listener = bind_unix(path)?;
            // The socket file this daemon bound. If it was unlinked while
            // the daemon ran, the path may name another daemon's socket by
            // exit, and that one stays.
            let file = |m: std::fs::Metadata| (m.dev(), m.ino());
            let bound = std::fs::metadata(path).map(file)?;
            eprintln!(
                "nanopowerd: listening on {path} ({} workers)",
                state.workers
            );
            let served = accept_loop(&listener, state, &mut handles);
            if std::fs::metadata(path).map(file).ok() == Some(bound) {
                let _ = std::fs::remove_file(path);
            }
            served
        }
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr)?;
            eprintln!(
                "nanopowerd: listening on {addr} ({} workers)",
                state.workers
            );
            accept_loop(&listener, state, &mut handles)
        }
    };
    for handle in handles {
        let _ = handle.join();
    }
    served
}

/// One accepted connection: counted in `connections`, and listed in
/// `readers` while its handler reads; both undone when it exits.
struct ConnSlot {
    state: Arc<ServerState>,
    id: u64,
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.state
            .readers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.id);
        self.state.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Blocks in `accept` until shutdown wakes it (`np_bench::accept`),
/// spawning one handler thread per accepted connection — unless the
/// connection cap is reached, in which case the connection gets a typed
/// rejection line and is closed without a handler.
fn accept_loop<L>(
    listener: &L,
    state: &Arc<ServerState>,
    handles: &mut Vec<std::thread::JoinHandle<()>>,
) -> std::io::Result<()>
where
    L: Listener,
    L::Stream: Read + Write + TryCloneStream + Send + 'static,
{
    let mut next_id = 0u64;
    accept_until(listener, &state.stop, |conn| match conn {
        Ok(mut stream) => {
            let live = state.connections.fetch_add(1, Ordering::SeqCst) + 1;
            let id = next_id;
            next_id += 1;
            let slot = ConnSlot {
                state: Arc::clone(state),
                id,
            };
            if live > state.max_connections {
                state.counters.bump(&state.counters.conn_rejected);
                let line = Response::Protocol {
                    reason: format!(
                        "connection limit reached ({} active, cap {})",
                        live - 1,
                        state.max_connections
                    ),
                }
                .to_json();
                let _ = stream.write_all(line.as_bytes());
                let _ = stream.write_all(b"\n");
                let _ = stream.flush();
                return;
            }
            let state = Arc::clone(state);
            // Dropping a finished handler's handle detaches it, which
            // releases its stack now instead of at shutdown; shutdown
            // joins the handlers still live.
            handles.retain(|h| !h.is_finished());
            handles.push(std::thread::spawn(move || {
                // A connection that fails mid-stream (client went away)
                // is normal; the error is its own signal.
                let _ = serve_conn(stream, &slot, &state);
            }));
        }
        Err(e) => eprintln!("nanopowerd: accept failed: {e}"),
    })
}

/// Both socket flavors can clone themselves into a second handle (so
/// one side reads lines while the other writes responses, and shutdown
/// can close the read half under a blocked reader) and take a write
/// timeout (so a stalled client cannot wedge a writer).
trait TryCloneStream: Sized {
    fn try_clone_stream(&self) -> std::io::Result<Self>;
    fn shutdown_read(&self) -> std::io::Result<()>;
    fn set_stream_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

#[cfg(unix)]
impl TryCloneStream for std::os::unix::net::UnixStream {
    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn shutdown_read(&self) -> std::io::Result<()> {
        self.shutdown(Shutdown::Read)
    }
    fn set_stream_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_write_timeout(timeout)
    }
}

impl TryCloneStream for TcpStream {
    fn try_clone_stream(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn shutdown_read(&self) -> std::io::Result<()> {
        self.shutdown(Shutdown::Read)
    }
    fn set_stream_write_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_write_timeout(timeout)
    }
}

/// The shared write half of one connection: a mutex-serialized writer
/// plus a dead flag. The stream carries a write deadline; the first
/// write that trips it marks the connection dead, and every later write
/// is dropped silently — record streaming happens on the engine's
/// shared worker threads, so a wedged client costs the pool at most one
/// deadline, not a worker forever.
struct ConnWriter<W> {
    writer: Mutex<W>,
    dead: AtomicBool,
}

impl<W: Write> ConnWriter<W> {
    fn new(writer: W) -> Self {
        ConnWriter {
            writer: Mutex::new(writer),
            dead: AtomicBool::new(false),
        }
    }

    /// Writes one response line. A deadline trip (or any other write
    /// failure) marks the connection dead and is swallowed; callers that
    /// must know can check [`ConnWriter::is_dead`].
    fn send(&self, state: &ServerState, response: &Response) -> std::io::Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Ok(());
        }
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let outcome = w
            .write_all(response.to_json().as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush());
        drop(w);
        if let Err(e) = outcome {
            self.dead.store(true, Ordering::SeqCst);
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                state.counters.bump(&state.counters.write_timeouts);
            }
        }
        Ok(())
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }
}

/// One connection: greet, then answer request lines until EOF, a dead
/// write half, or a shutdown request. Shutdown closes the read half, so
/// a blocked read ends with EOF.
fn serve_conn<S>(stream: S, slot: &ConnSlot, state: &Arc<ServerState>) -> std::io::Result<()>
where
    S: Read + Write + TryCloneStream + Send + 'static,
{
    // The write timeout is the slow-client wedge guard.
    stream.set_stream_write_timeout(Some(state.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone_stream()?);
    if !state.watch_reader(slot.id, &stream)? {
        return Ok(());
    }
    let writer = Arc::new(ConnWriter::new(stream));
    writer.send(
        state,
        &Response::Hello(Hello {
            artifacts: registry::names().len(),
        }),
    )?;
    let mut line = String::new();
    loop {
        if writer.is_dead() {
            // The client stopped reading past the deadline; nothing we
            // produce can reach it anymore.
            break;
        }
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let request = std::mem::take(&mut line);
        if request.trim().is_empty() {
            continue;
        }
        match Request::parse(request.trim_end()) {
            Ok(Request::Run(run)) => handle_run(&run, &writer, state)?,
            Ok(Request::Stats) => {
                writer.send(
                    state,
                    &Response::Stats(StatsMsg {
                        quarantine_entries: state.quarantine.len() as u64,
                        memo_entries: state.memo.len() as u64,
                        memo_bytes: state.memo.approx_bytes() as u64,
                        memo_evictions: state.memo.evictions(),
                        ..state.counters.stats()
                    }),
                )?;
            }
            Ok(Request::Health) => {
                writer.send(state, &Response::Health(state.health()))?;
            }
            Ok(Request::Shutdown) => {
                state.begin_shutdown();
                writer.send(state, &Response::Shutdown)?;
                break;
            }
            Err(Error::Protocol { reason }) => {
                state.counters.bump(&state.counters.protocol_errors);
                writer.send(state, &Response::Protocol { reason })?;
            }
            Err(Error::InvalidSpec { field, reason }) => {
                state.counters.bump(&state.counters.invalid_specs);
                writer.send(state, &Response::InvalidSpec { field, reason })?;
            }
            Err(other) => {
                state.counters.bump(&state.counters.protocol_errors);
                writer.send(
                    state,
                    &Response::Protocol {
                        reason: other.to_string(),
                    },
                )?;
            }
        }
    }
    Ok(())
}

/// Serves one `run` request: admission (with queue-wait shedding),
/// memo short-circuit, engine run with streamed records, terminal
/// report.
fn handle_run<W>(
    run: &RunRequest,
    writer: &Arc<ConnWriter<W>>,
    state: &Arc<ServerState>,
) -> std::io::Result<()>
where
    W: Write + Send + 'static,
{
    // Cost gate: a static estimate of the specs' work, answered before
    // admission so an over-budget request never consumes a slot (or any
    // compute). Registry names are pre-vetted and bypass the gate.
    let estimate: u64 = run.specs.iter().map(ScenarioSpec::cost).sum();
    if estimate > state.max_spec_cost {
        state.counters.bump(&state.counters.too_expensive);
        return writer.send(
            state,
            &Response::TooExpensive {
                estimate,
                budget: state.max_spec_cost,
            },
        );
    }
    let permit = match state.gate.admit_within(Some(state.shed_budget)) {
        Admission::Admitted(permit) => permit,
        Admission::QueueFull => {
            state.counters.bump(&state.counters.rejected);
            return writer.send(
                state,
                &Response::Busy {
                    inflight: state.gate.inflight() as u64,
                    capacity: state.gate.capacity() as u64,
                },
            );
        }
        Admission::Shed { waited } => {
            state.counters.bump(&state.counters.overloaded);
            return writer.send(
                state,
                &Response::Overloaded {
                    waited_ms: waited.as_millis() as u64,
                    budget_ms: state.shed_budget.as_millis() as u64,
                },
            );
        }
    };
    state.counters.bump(&state.counters.accepted);
    // The deadline runs from admission, so the budget covers the whole
    // request; past it the token reads as cancelled.
    let start = Instant::now();
    let deadline = run.deadline_ms.map(|ms| start + Duration::from_millis(ms));
    let token = deadline.map_or_else(CancelToken::new, CancelToken::with_deadline);
    if state.hold_ms > 0 {
        // Test hook: keep the admission slot busy so backpressure (and
        // deadline expiry) is observable deterministically.
        std::thread::sleep(Duration::from_millis(state.hold_ms));
    }

    // Memo pass: serve already-rendered artifacts (and quarantined
    // specs) without burning an engine slot. A miss claims its key and
    // becomes a job; a miss whose key another request is rendering waits
    // for that render instead.
    let items = run
        .names
        .iter()
        .map(|name| Item::Name(name))
        .chain(run.specs.iter().map(|spec| Item::Spec(spec, spec.digest())));
    let mut tally = Tally::default();
    let mut renders = Vec::new();
    let mut awaited = Vec::new();
    for item in items {
        match lookup(item, run.csv, state, writer, &mut tally)? {
            Lookup::Served => {}
            Lookup::Claimed(claim) => renders.push(item.render(run.csv, state, Some(claim))),
            Lookup::Elsewhere => awaited.push(item),
        }
    }
    tally.add(render(renders, run.csv, &token, writer, state));

    // Wait pass. This request's claims are all released by now, and it
    // takes no new one until every wait is over, so no two requests can
    // wait on each other. A wait past the deadline is a `cancelled`
    // record.
    let mut ready = Vec::new();
    for item in awaited {
        let key = ArtifactMemo::request_key(&item.name(), run.csv);
        if state.inflight.wait(key, deadline) {
            ready.push(item);
            continue;
        }
        tally.cancelled += 1;
        tally.interrupted = true;
        writer.send(
            state,
            &Response::Record(RecordMsg {
                name: item.name(),
                status: "cancelled".into(),
                duration_ms: 0.0,
                memo: false,
                bytes: None,
                digest: None,
                error: Some(Error::Cancelled.to_string()),
            }),
        )?;
    }
    // Each awaited key is looked up once more and never waited for
    // again: memoized (a memo record), quarantined (its render panicked),
    // or still missing because that render failed or was cancelled; then
    // this request renders it, unclaimed when the key was claimed again
    // meanwhile (by another request or by a repeat of it in this one).
    let mut renders = Vec::new();
    for item in ready {
        let claim = match lookup(item, run.csv, state, writer, &mut tally)? {
            Lookup::Served => continue,
            Lookup::Claimed(claim) => Some(claim),
            Lookup::Elsewhere => None,
        };
        renders.push(item.render(run.csv, state, claim));
    }
    tally.add(render(renders, run.csv, &token, writer, state));

    if tally.interrupted {
        state.counters.bump(&state.counters.cancelled);
    }
    state.counters.bump(&state.counters.served);
    // Release the slot before the terminal write: a client that has
    // read its report must be able to get its next request admitted.
    drop(permit);
    writer.send(
        state,
        &Response::Report(ReportMsg {
            ok: tally.ok,
            failures: tally.failures,
            cancelled: tally.cancelled,
            memo_hits: tally.memo_hits,
            total_ms: start.elapsed().as_secs_f64() * 1e3,
            interrupted: tally.interrupted,
        }),
    )
}

/// One requested artifact: a registry name, or a scenario spec with
/// its digest, serialized once per request.
#[derive(Clone, Copy)]
enum Item<'a> {
    Name(&'a str),
    Spec(&'a ScenarioSpec, u64),
}

impl Item<'_> {
    /// The name its record carries.
    fn name(self) -> String {
        match self {
            Item::Name(name) => name.to_owned(),
            Item::Spec(_, digest) => job_name_for(digest),
        }
    }

    /// Its render job, holding `claim` when this request won the key. A
    /// spec's grid leg reads the daemon's unit-solve table.
    fn render(self, csv: bool, state: &Arc<ServerState>, claim: Option<InFlightClaim>) -> Render {
        let (job, spec_digest) = match self {
            Item::Name(name) => match registry::find(name) {
                Some(artifact) => (artifact.job(csv), None),
                None => {
                    let name = name.to_owned();
                    let job = Job::new(name.clone(), move || {
                        Err(Error::UnknownArtifact { name: name.clone() })
                    });
                    (job, None)
                }
            },
            Item::Spec(spec, digest) => {
                let (job_spec, shared) = (spec.clone(), Arc::clone(state));
                let job = Job::new(job_name_for(digest), move || {
                    job_spec.render_in(&shared.mesh, csv)
                });
                (job, Some(digest))
            }
        };
        Render {
            job,
            claim,
            spec_digest,
        }
    }
}

/// Where a requested item stands.
enum Lookup {
    /// Answered from the quarantine or the memo; its record is sent.
    Served,
    /// Claimed by this request, which renders it.
    Claimed(InFlightClaim),
    /// Claimed already: by another request, or by an earlier copy of
    /// the key in this one.
    Elsewhere,
}

/// Answers `item` from the quarantine (a spec whose render panicked is
/// rejected O(1) with the original message) or the memo, sending its
/// record; on a miss, claims its key. A render that finished between
/// the miss and the claim memoized its output before releasing its
/// claim, so the memo is read once more under the claim.
fn lookup<W>(
    item: Item,
    csv: bool,
    state: &ServerState,
    writer: &ConnWriter<W>,
    tally: &mut Tally,
) -> std::io::Result<Lookup>
where
    W: Write,
{
    let name = item.name();
    if let Item::Spec(_, digest) = item {
        if let Some(message) = state.quarantine.check(digest) {
            tally.quarantined(state);
            writer.send(state, &quarantined_record(name, message))?;
            return Ok(Lookup::Served);
        }
    }
    let key = ArtifactMemo::request_key(&name, csv);
    let entry = match state.memo.get(key) {
        Some(entry) => entry,
        None => match state.inflight.claim(key) {
            None => return Ok(Lookup::Elsewhere),
            Some(claim) => match state.memo.get(key) {
                Some(entry) => entry,
                None => return Ok(Lookup::Claimed(claim)),
            },
        },
    };
    tally.memo_hit(state);
    writer.send(state, &memo_record(name, entry))?;
    Ok(Lookup::Served)
}

/// A `run` request's outcome counts, summed over its memo hits,
/// quarantine rejections, waits and renders.
#[derive(Default)]
struct Tally {
    ok: u64,
    failures: u64,
    cancelled: u64,
    memo_hits: u64,
    interrupted: bool,
}

impl Tally {
    fn memo_hit(&mut self, state: &ServerState) {
        self.ok += 1;
        self.memo_hits += 1;
        state.counters.bump(&state.counters.memo_hits);
    }

    fn quarantined(&mut self, state: &ServerState) {
        self.failures += 1;
        state.counters.bump(&state.counters.quarantined);
    }

    fn add(&mut self, report: Option<RunReport>) {
        let Some(report) = report else {
            return;
        };
        self.interrupted |= report.interrupted;
        for record in &report.records {
            match record.status() {
                "ok" => self.ok += 1,
                "cancelled" => self.cancelled += 1,
                _ => self.failures += 1,
            }
        }
    }
}

/// One render job, with the in-flight claim its completion releases
/// (when it holds one) and, for a spec, the digest a panic quarantines.
struct Render {
    job: Job,
    claim: Option<InFlightClaim>,
    spec_digest: Option<u64>,
}

/// Runs `renders` on the engine, streaming each record as it lands.
/// A success is memoized and a spec panic quarantined before the
/// record's claim is released, so a waiter woken by the release finds
/// the outcome. `None` when there is nothing to render.
fn render<W>(
    renders: Vec<Render>,
    csv: bool,
    token: &CancelToken,
    writer: &Arc<ConnWriter<W>>,
    state: &Arc<ServerState>,
) -> Option<RunReport>
where
    W: Write + Send + 'static,
{
    if renders.is_empty() {
        return None;
    }
    let mut jobs = Vec::with_capacity(renders.len());
    let mut claims = Vec::with_capacity(renders.len());
    let mut spec_digests = Vec::with_capacity(renders.len());
    for r in renders {
        jobs.push(r.job);
        claims.push(r.claim);
        spec_digests.push(r.spec_digest);
    }
    let claims = Arc::new(Mutex::new(claims));
    let report = {
        let (writer, shared, claims) = (Arc::clone(writer), Arc::clone(state), Arc::clone(&claims));
        Session::new(jobs)
            .workers(state.workers)
            .cancel(token.clone())
            .on_record(move |index, record: &JobRecord| {
                match &record.outcome {
                    Ok(output) => shared
                        .memo
                        .insert(ArtifactMemo::request_key(&record.name, csv), output.clone()),
                    // A spec that panicked its worker is quarantined by
                    // digest: the engine already caught the panic, and
                    // every later identical spec is rejected O(1).
                    Err(Error::Panic(message)) => {
                        if let Some(digest) = spec_digests[index] {
                            shared.counters.bump(&shared.counters.panicked);
                            shared.quarantine.insert(digest, message.clone());
                        }
                    }
                    Err(_) => {}
                }
                let claim = claims
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_mut(index)
                    .and_then(Option::take);
                drop(claim);
                // Record streaming runs on the engine's shared workers;
                // `send` bounds a stalled client to one write deadline
                // and then drops it, so the pool stays live.
                let _ = writer.send(
                    &shared,
                    &Response::Record(RecordMsg::from_record(record, false)),
                );
            })
            .run()
    };
    // Claims whose record never reached the observer are released here.
    claims
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    Some(report)
}

/// The record of a memo-served key.
fn memo_record(name: String, entry: MemoEntry) -> Response {
    Response::Record(RecordMsg {
        name,
        status: "ok".into(),
        duration_ms: 0.0,
        memo: true,
        bytes: Some(entry.output.len() as u64),
        digest: Some(entry.digest),
        error: None,
    })
}

/// The record of a spec rejected from the panic quarantine.
fn quarantined_record(name: String, message: String) -> Response {
    Response::Record(RecordMsg {
        name,
        status: "quarantined".into(),
        duration_ms: 0.0,
        memo: false,
        bytes: None,
        digest: None,
        error: Some(message),
    })
}

// ---------------------------------------------------------------------
// chaos-proxy (hidden; exposes np_bench::chaos for scripts/CI)
// ---------------------------------------------------------------------

#[cfg(unix)]
fn cmd_chaos_proxy(args: &[String]) -> i32 {
    use np_bench::chaos::{ChaosProxy, ChaosSchedule};
    let parsed = (|| -> Result<_, String> {
        let listen = parse_flag_opt(args, "--listen")?.ok_or("chaos-proxy needs --listen PATH")?;
        let upstream =
            parse_flag_opt(args, "--upstream")?.ok_or("chaos-proxy needs --upstream PATH")?;
        let seed = parse_flag_value(args, "--seed", 1u64)?;
        Ok((listen, upstream, seed))
    })();
    let (listen, upstream, seed) = match parsed {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("nanopowerd chaos-proxy: {e}");
            return 2;
        }
    };
    let proxy = match ChaosProxy::start(&listen, &upstream, ChaosSchedule::Seeded { seed }) {
        Ok(proxy) => proxy,
        Err(e) => {
            eprintln!("nanopowerd chaos-proxy: {e}");
            return 1;
        }
    };
    eprintln!("nanopowerd chaos-proxy: {listen} -> {upstream} (seed {seed})");
    // Runs until killed: the proxy is scaffolding for a driving script,
    // which owns its lifetime.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
        let _ = proxy.accepted();
    }
}

// ---------------------------------------------------------------------
// client side
// ---------------------------------------------------------------------

/// A line-oriented client connection (hello already consumed).
struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Client {
    fn connect(endpoint: &Endpoint) -> Result<(Self, Hello), String> {
        let (read_half, write_half): (Box<dyn Read + Send>, Box<dyn Write + Send>) = match endpoint
        {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                use std::os::unix::net::UnixStream;
                let stream = UnixStream::connect(path)
                    .map_err(|e| format!("cannot connect to {path}: {e}"))?;
                let clone = stream
                    .try_clone()
                    .map_err(|e| format!("cannot clone socket: {e}"))?;
                (Box::new(clone), Box::new(stream))
            }
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)
                    .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
                let clone = stream
                    .try_clone()
                    .map_err(|e| format!("cannot clone socket: {e}"))?;
                (Box::new(clone), Box::new(stream))
            }
        };
        let mut client = Client {
            reader: BufReader::new(read_half),
            writer: write_half,
        };
        match client.read_response()? {
            Response::Hello(hello) => Ok((client, hello)),
            other => Err(format!("expected hello, got {other:?}")),
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        self.writer
            .write_all(request.to_json().as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))
    }

    fn read_response(&mut self) -> Result<Response, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("read failed: {e}"))?;
            if n == 0 {
                return Err("connection closed".into());
            }
            if !line.trim().is_empty() {
                return Response::parse(line.trim_end()).map_err(|e| e.to_string());
            }
        }
    }

    /// Sends a run request and reads until its terminal line, returning
    /// the report — or the typed `busy` / `overloaded` rejection.
    fn run(&mut self, request: &RunRequest) -> Result<RunOutcome, String> {
        self.send(&Request::Run(request.clone()))?;
        loop {
            match self.read_response()? {
                Response::Record(_) => {}
                Response::Report(report) => return Ok(RunOutcome::Report(report)),
                Response::Busy { .. } => return Ok(RunOutcome::Busy),
                Response::Overloaded { .. } => return Ok(RunOutcome::Overloaded),
                Response::TooExpensive { estimate, budget } => {
                    return Err(format!(
                        "rejected as too expensive: estimate {estimate} over budget {budget}"
                    ))
                }
                Response::InvalidSpec { field, reason } => {
                    return Err(format!("invalid spec: field `{field}`: {reason}"))
                }
                Response::Protocol { reason } => return Err(format!("protocol error: {reason}")),
                other => return Err(format!("unexpected response {other:?}")),
            }
        }
    }
}

enum RunOutcome {
    Report(ReportMsg),
    Busy,
    Overloaded,
}

// ---------------------------------------------------------------------
// load
// ---------------------------------------------------------------------

fn cmd_load(args: &[String]) -> i32 {
    let (endpoint, rest) = match parse_endpoint(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("nanopowerd load: {e}");
            return 2;
        }
    };
    let quick = rest.iter().any(|a| a == "--quick");
    let csv = rest.iter().any(|a| a == "--csv");
    let defaults = if quick {
        (2usize, 5u64)
    } else {
        (4usize, 25u64)
    };
    let opts = (
        parse_flag_value(&rest, "--connections", defaults.0),
        parse_flag_value(&rest, "--requests", defaults.1),
        parse_flag_value(&rest, "--seed", 1u64),
    );
    let (connections, requests, seed) = match opts {
        (Ok(c), Ok(r), Ok(s)) => (c, r, s),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            eprintln!("nanopowerd load: {e}");
            return 2;
        }
    };
    let (connections, requests) = (connections.max(1), requests.max(1));
    match run_load(&endpoint, connections, requests, csv, seed) {
        Ok((tally, daemon)) => {
            println!(
                "{connections} connections x {requests} requests: {} ok, {} errors, \
                 {} busy retries, {} overload retries, {} memo hits",
                tally.completed,
                tally.errors,
                tally.busy_retries,
                tally.shed_retries,
                daemon.memo_hits,
            );
            i32::from(tally.errors > 0)
        }
        Err(e) => {
            eprintln!("nanopowerd load: {e}");
            1
        }
    }
}

/// Per-request outcome counts, per connection and then for the run.
#[derive(Default)]
struct LoadTally {
    completed: u64,
    errors: u64,
    busy_retries: u64,
    shed_retries: u64,
}

/// SplitMix64 step — the deterministic mixer behind every seeded
/// workload choice the load client makes.
fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic pool of cheap valid scenario specs: every field
/// derives from the seed alone, so two runs with equal seeds request
/// identical digests — which is what makes the daemon's spec-keyed memo
/// observable across connections.
fn spec_pool(seed: u64) -> Vec<ScenarioSpec> {
    let nodes = [
        TechNode::N180,
        TechNode::N130,
        TechNode::N100,
        TechNode::N70,
        TechNode::N50,
        TechNode::N35,
    ];
    nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let mix = splitmix(seed.wrapping_add(i as u64));
            let mut spec = ScenarioSpec::at_node(node);
            spec.activity = 0.05 + (mix % 10) as f64 * 0.01;
            spec.workload_ratio = 0.25 + ((mix >> 16) % 4) as f64 * 0.25;
            if i % 3 == 0 {
                // A small mesh leg on every third spec keeps the grid
                // path exercised without dominating the run.
                spec.grid = Some(GridSpec { resolution: 17 });
            }
            spec
        })
        .collect()
}

/// Drives the seeded workload over `connections` clients and returns
/// their tally with the daemon's `stats` after the run.
fn run_load(
    endpoint: &Endpoint,
    connections: usize,
    requests_per_conn: u64,
    csv: bool,
    seed: u64,
) -> Result<(LoadTally, StatsMsg), String> {
    // A small rotation of cheap artifacts: repeats within and across
    // connections are what make the daemon's memo observable.
    let names: Vec<String> = registry::names()
        .into_iter()
        .take(6)
        .map(str::to_owned)
        .collect();
    if names.is_empty() {
        return Err("artifact registry is empty".into());
    }
    let specs = spec_pool(seed);
    let tally = Mutex::new(LoadTally::default());
    std::thread::scope(|scope| {
        for conn in 0..connections {
            let (names, specs, tally) = (&names, &specs, &tally);
            let endpoint = endpoint.clone();
            scope.spawn(move || {
                let outcome =
                    drive_connection(&endpoint, conn, requests_per_conn, names, specs, csv, seed);
                let mut tally = tally.lock().unwrap_or_else(PoisonError::into_inner);
                match outcome {
                    Ok(conn_tally) => {
                        tally.completed += conn_tally.completed;
                        tally.errors += conn_tally.errors;
                        tally.busy_retries += conn_tally.busy_retries;
                        tally.shed_retries += conn_tally.shed_retries;
                    }
                    Err(e) => {
                        eprintln!("connection {conn}: {e}");
                        tally.errors += requests_per_conn;
                    }
                }
            });
        }
    });
    // One more connection to collect the daemon's own counters.
    let (mut client, _) = Client::connect(endpoint)?;
    client.send(&Request::Stats)?;
    match client.read_response()? {
        Response::Stats(stats) => Ok((
            tally.into_inner().unwrap_or_else(PoisonError::into_inner),
            stats,
        )),
        other => Err(format!("expected stats, got {other:?}")),
    }
}

fn drive_connection(
    endpoint: &Endpoint,
    conn: usize,
    requests: u64,
    names: &[String],
    specs: &[ScenarioSpec],
    csv: bool,
    seed: u64,
) -> Result<LoadTally, String> {
    let (mut client, _hello) = Client::connect(endpoint)?;
    let mut tally = LoadTally::default();
    for i in 0..requests {
        // Seeded mix: roughly every third request carries a scenario
        // spec from the pool; the rest rotate through the registry
        // names so every name (and digest) repeats early.
        let roll = splitmix(seed ^ ((conn as u64) << 32) ^ i);
        let is_spec = roll.is_multiple_of(3);
        let request = if is_spec {
            RunRequest {
                names: Vec::new(),
                specs: vec![specs[(roll as usize / 3) % specs.len()].clone()],
                csv,
                deadline_ms: Some(60_000),
            }
        } else {
            let name = &names[(conn + i as usize) % names.len()];
            RunRequest {
                names: vec![name.clone()],
                specs: Vec::new(),
                csv,
                deadline_ms: Some(60_000),
            }
        };
        loop {
            match client.run(&request)? {
                RunOutcome::Report(report) => {
                    tally.completed += 1;
                    if report.failures > 0 || report.cancelled > 0 {
                        tally.errors += 1;
                    }
                    break;
                }
                RunOutcome::Busy => {
                    tally.busy_retries += 1;
                    if tally.busy_retries > 10_000 {
                        return Err("daemon stayed busy past the retry budget".into());
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                RunOutcome::Overloaded => {
                    // Shed load backs off harder than plain busy: the
                    // daemon told us its queue wait itself is saturated.
                    tally.shed_retries += 1;
                    if tally.shed_retries > 1_000 {
                        return Err("daemon stayed overloaded past the retry budget".into());
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }
    Ok(tally)
}

// ---------------------------------------------------------------------
// stats / health / shutdown
// ---------------------------------------------------------------------

fn cmd_oneshot(args: &[String], request: Request) -> i32 {
    let (endpoint, _rest) = match parse_endpoint(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("nanopowerd: {e}");
            return 2;
        }
    };
    let result = Client::connect(&endpoint).and_then(|(mut client, _)| {
        client.send(&request)?;
        client.read_response()
    });
    match result {
        Ok(response) => {
            println!("{}", response.to_json());
            0
        }
        Err(e) => {
            eprintln!("nanopowerd: {e}");
            1
        }
    }
}
