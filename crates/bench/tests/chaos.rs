//! Chaos suite for `nanopowerd`: socket-level fault injection through
//! `np_bench::chaos`, crash/restart spill rehydration, overload
//! shedding, watchdog health, and the stale-socket restart path — the
//! failure half of the service contract, driven against the real
//! binary on temp unix sockets.
//!
//! Every schedule here is explicit or seeded, so a failing run replays
//! exactly.
#![cfg(unix)]

use nanopower::proto::{Hello, RecordMsg, ReportMsg, Request, Response, RunRequest, StatsMsg};
use nanopower::roadmap::TechNode;
use nanopower::spec::ScenarioSpec;
use np_bench::chaos::{ChaosProxy, ChaosSchedule, Fault};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon on a temp socket. Killed (and its socket removed)
/// on drop unless a test explicitly kill-nines it to leave wreckage.
struct Daemon {
    child: Child,
    socket: PathBuf,
    cleanup_socket: bool,
}

fn temp_path(tag: &str, suffix: &str) -> PathBuf {
    std::env::temp_dir().join(format!("np-chaos-{tag}-{}{suffix}", std::process::id()))
}

impl Daemon {
    /// Spawns `nanopowerd serve --socket <tmp>` with extra flags and
    /// waits until the socket accepts connections.
    fn spawn(tag: &str, extra: &[&str]) -> Daemon {
        let socket = temp_path(tag, ".sock");
        let child = Command::new(env!("CARGO_BIN_EXE_nanopowerd"))
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", "2"])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn nanopowerd");
        let daemon = Daemon {
            child,
            socket,
            cleanup_socket: true,
        };
        daemon.await_socket();
        daemon
    }

    fn await_socket(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(&self.socket).is_err() {
            assert!(
                Instant::now() < deadline,
                "daemon never opened {}",
                self.socket.display()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn connect(&self) -> Conn {
        Conn::open(&self.socket)
    }

    /// SIGKILLs the daemon, leaving its socket file (and spill) behind —
    /// the crash a restart must tolerate.
    fn kill9(mut self) -> PathBuf {
        self.child.kill().expect("kill -9 daemon");
        let _ = self.child.wait();
        self.cleanup_socket = false;
        let socket = self.socket.clone();
        // Drop must not re-kill the reaped child or remove the socket.
        self.child = Command::new("true").spawn().expect("spawn true");
        socket
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn shutdown(self) {
        let mut conn = self.connect();
        self.shutdown_over(&mut conn);
    }

    /// Sends `shutdown` over an open connection and waits for a clean
    /// exit.
    fn shutdown_over(mut self, conn: &mut Conn) {
        conn.send(&Request::Shutdown);
        assert_eq!(conn.read(), Response::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait().expect("wait on daemon") {
                Some(status) => {
                    assert!(status.success(), "daemon exit: {status}");
                    break;
                }
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
                None => panic!("daemon ignored shutdown"),
            }
        }
        let _ = std::fs::remove_file(&self.socket);
        self.child = Command::new("true").spawn().expect("spawn true");
        self.cleanup_socket = false;
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if self.cleanup_socket {
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// One protocol connection with the hello already consumed.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &PathBuf) -> Conn {
        let mut conn = Conn::open_raw(socket);
        match conn.read() {
            Response::Hello(Hello { .. }) => {}
            other => panic!("expected hello, got {other:?}"),
        }
        conn
    }

    /// Opens without consuming the hello (for rejection-path tests).
    fn open_raw(socket: &PathBuf) -> Conn {
        let writer = UnixStream::connect(socket).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone socket"));
        Conn { reader, writer }
    }

    fn send(&mut self, request: &Request) {
        self.writer
            .write_all(request.to_json().as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("send request");
    }

    fn read(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed unexpectedly");
        Response::parse(line.trim_end()).expect("parse response")
    }

    /// Runs a request to its terminal report, collecting the streamed
    /// records and skipping interleaved protocol-error lines (the
    /// garbage-flood tests produce those by design).
    fn run(&mut self, request: RunRequest) -> (ReportMsg, Vec<RecordMsg>) {
        self.send(&Request::Run(request));
        let mut records = Vec::new();
        loop {
            match self.read() {
                Response::Record(record) => records.push(record),
                Response::Report(report) => return (report, records),
                Response::Protocol { .. } => {}
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    fn stats(&mut self) -> StatsMsg {
        self.send(&Request::Stats);
        match self.read() {
            Response::Stats(stats) => stats,
            other => panic!("expected stats, got {other:?}"),
        }
    }

    fn health(&mut self) -> nanopower::proto::HealthMsg {
        self.send(&Request::Health);
        match self.read() {
            Response::Health(health) => health,
            other => panic!("expected health, got {other:?}"),
        }
    }
}

fn run_names(names: &[&str]) -> RunRequest {
    RunRequest {
        names: names.iter().map(|n| n.to_string()).collect(),
        specs: Vec::new(),
        csv: false,
        deadline_ms: Some(60_000),
    }
}

// ---------------------------------------------------------------------
// crash + rehydrate
// ---------------------------------------------------------------------

#[test]
fn kill_nine_mid_load_then_restart_rehydrates_the_memo() {
    let spill = temp_path("spill", ".memo");
    let _ = std::fs::remove_file(&spill);
    let spill_arg = spill.to_string_lossy().into_owned();

    // First life: render two artifacts (spilled at insert time), then
    // keep load flowing in the background while the kill lands.
    let daemon = Daemon::spawn("crash", &["--memo-spill", &spill_arg]);
    let mut conn = daemon.connect();
    let (report, records) = conn.run(run_names(&["fig5", "table2"]));
    assert_eq!(report.ok, 2, "{report:?}");
    // Keyed by name: fresh records stream in completion order, memo
    // hits in request order.
    let pre_crash: BTreeMap<String, Option<String>> = records
        .iter()
        .map(|r| (r.name.clone(), r.digest.clone()))
        .collect();
    let socket = daemon.socket.clone();
    let flood = std::thread::spawn(move || {
        // Background load at kill time; the dying connection erroring
        // out IS the scenario, so outcomes are deliberately ignored.
        let Ok(stream) = UnixStream::connect(&socket) else {
            return;
        };
        let mut stream = stream;
        for _ in 0..10_000 {
            let line = Request::Run(run_names(&["fig1", "fig5", "table2"])).to_json();
            if stream
                .write_all(line.as_bytes())
                .and_then(|()| stream.write_all(b"\n"))
                .is_err()
            {
                break;
            }
        }
    });
    std::thread::sleep(Duration::from_millis(100));
    let old_socket = daemon.kill9();
    flood.join().expect("flood thread");

    // Second life: same socket path (left stale by the kill), same
    // spill. The very first run must answer from the rehydrated memo
    // with digests identical to the first life's.
    let restarted = Daemon::spawn("crash2", &["--memo-spill", &spill_arg]);
    let mut conn = restarted.connect();
    let (report, records) = conn.run(run_names(&["fig5", "table2"]));
    assert_eq!(report.ok, 2, "{report:?}");
    assert_eq!(
        report.memo_hits, 2,
        "first post-restart pass must hit the rehydrated memo: {report:?}"
    );
    assert!(records.iter().all(|r| r.memo), "{records:?}");
    let post_crash: BTreeMap<String, Option<String>> = records
        .iter()
        .map(|r| (r.name.clone(), r.digest.clone()))
        .collect();
    assert_eq!(pre_crash, post_crash, "digests survive the crash");
    let health = conn.health();
    assert!(health.spill_active, "{health:?}");
    assert!(health.memo_entries >= 2, "{health:?}");
    restarted.shutdown();
    let _ = std::fs::remove_file(&spill);
    let _ = std::fs::remove_file(&old_socket);
}

#[test]
fn spec_memo_entries_rehydrate_after_kill_nine_with_pre_crash_digests() {
    let spill = temp_path("spec-spill", ".memo");
    let _ = std::fs::remove_file(&spill);
    let spill_arg = spill.to_string_lossy().into_owned();
    let run_spec = |spec: ScenarioSpec| RunRequest {
        names: Vec::new(),
        specs: vec![spec],
        csv: false,
        deadline_ms: Some(60_000),
    };
    let mut spec = ScenarioSpec::at_node(TechNode::N70);
    spec.activity = 0.2;

    // First life: render the spec (spilled at insert time), then kill -9.
    let daemon = Daemon::spawn("spec-crash", &["--memo-spill", &spill_arg]);
    let mut conn = daemon.connect();
    let (report, records) = conn.run(run_spec(spec.clone()));
    assert_eq!(report.ok, 1, "{report:?}");
    assert!(records[0].name.starts_with("spec:"), "{records:?}");
    let pre_crash = (records[0].name.clone(), records[0].digest.clone());
    let old_socket = daemon.kill9();

    // Second life: the very first identical spec must answer from the
    // rehydrated memo under the same digest-derived key.
    let restarted = Daemon::spawn("spec-crash2", &["--memo-spill", &spill_arg]);
    let mut conn = restarted.connect();
    let (report, records) = conn.run(run_spec(spec));
    assert_eq!(
        report.memo_hits, 1,
        "spec memo entry survives the crash: {report:?}"
    );
    assert!(records[0].memo, "{records:?}");
    assert_eq!(
        (records[0].name.clone(), records[0].digest.clone()),
        pre_crash,
        "digest-keyed identity survives the crash"
    );
    restarted.shutdown();
    let _ = std::fs::remove_file(&spill);
    let _ = std::fs::remove_file(&old_socket);
}

#[test]
fn stale_socket_is_cleaned_up_but_a_live_daemon_is_not_clobbered() {
    // A kill -9 leaves the socket file behind; the next serve on the
    // same path must probe, unlink, and bind.
    let daemon = Daemon::spawn("stale", &[]);
    let socket = daemon.kill9();
    assert!(socket.exists(), "kill -9 leaves the socket file");
    let restarted = Daemon {
        child: Command::new(env!("CARGO_BIN_EXE_nanopowerd"))
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(["--workers", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("respawn on stale socket"),
        socket: socket.clone(),
        cleanup_socket: true,
    };
    restarted.await_socket();
    let mut conn = restarted.connect();
    assert!(conn.health().ready);

    // A second daemon against the now-LIVE socket must refuse to
    // clobber it and exit with an error.
    let mut usurper = Command::new(env!("CARGO_BIN_EXE_nanopowerd"))
        .arg("serve")
        .arg("--socket")
        .arg(&socket)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn usurper");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = usurper.try_wait().expect("wait usurper") {
            break status;
        }
        assert!(Instant::now() < deadline, "usurper never exited");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(!status.success(), "usurper must fail against a live daemon");
    // And the original is untouched.
    let (report, _) = conn.run(run_names(&["fig5"]));
    assert_eq!(report.ok, 1, "{report:?}");
    restarted.shutdown();
}

// ---------------------------------------------------------------------
// overload protection
// ---------------------------------------------------------------------

#[test]
fn queue_wait_past_the_shed_budget_is_typed_overloaded_not_busy() {
    let daemon = Daemon::spawn(
        "shed",
        &[
            "--max-inflight",
            "1",
            "--queue-depth",
            "4",
            "--hold-ms",
            "700",
            "--shed-ms",
            "100",
        ],
    );
    let slow = {
        let mut conn = daemon.connect();
        std::thread::spawn(move || {
            let (report, _) = conn.run(run_names(&["fig5"]));
            assert_eq!(report.ok, 1, "{report:?}");
        })
    };
    let mut conn = daemon.connect();
    let admitted_by = Instant::now() + Duration::from_secs(10);
    while conn.stats().accepted == 0 {
        assert!(Instant::now() < admitted_by, "slow request never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    // The queue has room (depth 4), so this is NOT busy — it queues,
    // waits past the 100 ms budget, and gets shed with `overloaded`.
    conn.send(&Request::Run(run_names(&["table2"])));
    match conn.read() {
        Response::Overloaded {
            waited_ms,
            budget_ms,
        } => {
            assert_eq!(budget_ms, 100);
            assert!(waited_ms >= 100, "waited {waited_ms} ms");
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
    slow.join().expect("slow request completes");
    // The connection survives shedding, and the drained daemon serves.
    let (report, _) = conn.run(run_names(&["table2"]));
    assert_eq!(report.ok, 1, "{report:?}");
    let stats = conn.stats();
    assert_eq!(stats.overloaded, 1, "{stats:?}");
    assert_eq!(stats.rejected, 0, "shed is not busy: {stats:?}");
    daemon.shutdown();
}

#[test]
fn a_client_that_never_reads_is_cut_at_the_write_deadline_not_kept_forever() {
    let daemon = Daemon::spawn("wedge", &["--write-timeout-ms", "200"]);
    // Prewarm the memo so the flood below answers instantly.
    let mut conn = daemon.connect();
    let (report, _) = conn.run(run_names(&["fig5"]));
    assert_eq!(report.ok, 1);

    // The wedge: pipeline thousands of requests and never read a byte.
    // The daemon's responses fill the socket buffer, its next write
    // stalls, trips the 200 ms deadline, and the connection is dropped —
    // costing the daemon one deadline, not a thread forever.
    let socket = daemon.socket.clone();
    let flood = std::thread::spawn(move || {
        let Ok(mut stream) = UnixStream::connect(&socket) else {
            return;
        };
        let line = format!("{}\n", Request::Run(run_names(&["fig5"])).to_json());
        for _ in 0..20_000 {
            if stream.write_all(line.as_bytes()).is_err() {
                break;
            }
        }
        // Hold the unread connection open well past the deadline.
        std::thread::sleep(Duration::from_millis(600));
    });

    // Meanwhile, a well-behaved client keeps getting served promptly.
    let clean_by = Instant::now() + Duration::from_secs(20);
    let mut cut = false;
    while Instant::now() < clean_by {
        let started = Instant::now();
        let (report, _) = conn.run(run_names(&["fig5"]));
        assert_eq!(report.ok, 1, "{report:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "clean client stalled behind the wedged one"
        );
        if conn.stats().write_timeouts >= 1 {
            cut = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    flood.join().expect("flood thread");
    assert!(
        cut,
        "the wedged connection never tripped the write deadline"
    );
    daemon.shutdown();
}

#[test]
fn connection_cap_rejects_typed_and_recovers() {
    let daemon = Daemon::spawn("cap", &["--max-connections", "2"]);
    let held_a = daemon.connect();
    let held_b = daemon.connect();
    // Third connection: no hello — a typed rejection line, then close.
    let mut rejected = Conn::open_raw(&daemon.socket);
    match rejected.read() {
        Response::Protocol { reason } => {
            assert!(reason.contains("connection limit"), "{reason}");
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }
    let mut line = String::new();
    assert_eq!(
        rejected.reader.read_line(&mut line).expect("read eof"),
        0,
        "rejected connection is closed"
    );
    drop(rejected);
    drop(held_a);
    // A slot freed: the next connection is served normally again.
    let free_by = Instant::now() + Duration::from_secs(10);
    let mut conn = loop {
        let mut candidate = Conn::open_raw(&daemon.socket);
        match candidate.read() {
            Response::Hello(_) => break candidate,
            Response::Protocol { .. } => {
                // The daemon may not have reaped the dropped handler yet.
                assert!(Instant::now() < free_by, "cap never released");
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected {other:?}"),
        }
    };
    let (report, _) = conn.run(run_names(&["fig5"]));
    assert_eq!(report.ok, 1, "{report:?}");
    assert!(conn.stats().conn_rejected >= 1);
    drop(held_b);
    // Over the served connection: a fresh one could still meet the cap
    // while held_b's handler exits.
    daemon.shutdown_over(&mut conn);
}

// ---------------------------------------------------------------------
// health + watchdog
// ---------------------------------------------------------------------

#[test]
fn watchdog_fails_health_while_the_pool_is_stuck_and_recovers() {
    let daemon = Daemon::spawn("watchdog", &["--hold-ms", "900", "--watchdog-ms", "200"]);
    let mut conn = daemon.connect();
    let health = conn.health();
    assert!(health.ready, "idle daemon is ready: {health:?}");
    assert_eq!(health.inflight, 0);

    // Wedge the pool: the hold keeps the admitted request inflight far
    // past the 200 ms watchdog threshold.
    let stuck = {
        let mut conn = daemon.connect();
        std::thread::spawn(move || {
            let (report, _) = conn.run(run_names(&["fig5"]));
            assert_eq!(report.ok, 1, "{report:?}");
        })
    };
    let failed_by = Instant::now() + Duration::from_secs(10);
    let unhealthy = loop {
        let health = conn.health();
        if !health.ready {
            break health;
        }
        assert!(
            Instant::now() < failed_by,
            "watchdog never failed health: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(unhealthy.oldest_inflight_ms >= 200, "{unhealthy:?}");
    assert_eq!(unhealthy.inflight, 1, "{unhealthy:?}");
    stuck.join().expect("stuck request completes");

    // Drained: `handle_run` drops the permit before it writes the
    // report, so the first health read after the report is ready.
    let health = conn.health();
    assert!(health.ready, "health must recover at once: {health:?}");
    assert_eq!(health.inflight, 0, "{health:?}");
    assert!(health.memo_entries >= 1, "{health:?}");
    daemon.shutdown();
}

// ---------------------------------------------------------------------
// fault-injection proxy
// ---------------------------------------------------------------------

#[test]
fn garbage_flood_draws_typed_errors_and_the_real_request_still_lands() {
    let daemon = Daemon::spawn("garbage", &[]);
    let listen = temp_path("garbage-proxy", ".sock");
    let proxy = ChaosProxy::start(
        &listen,
        &daemon.socket,
        ChaosSchedule::Cycle(vec![Fault::GarbageFlood { lines: 12 }]),
    )
    .expect("start proxy");

    let mut conn = Conn::open(&listen);
    // Conn::run skips the 12 interleaved protocol-error lines; the
    // request behind the flood must still complete.
    let (report, records) = conn.run(run_names(&["fig5"]));
    assert_eq!(report.ok, 1, "{report:?}");
    assert_eq!(records.len(), 1);
    let stats = conn.stats();
    assert_eq!(stats.protocol_errors, 12, "{stats:?}");
    assert_eq!(proxy.accepted(), 1);
    drop(proxy);
    daemon.shutdown();
}

#[test]
fn torn_frames_and_midline_disconnects_never_take_the_daemon_down() {
    let daemon = Daemon::spawn("torn", &[]);
    let listen = temp_path("torn-proxy", ".sock");
    // Cuts at different depths: inside the first JSON key, inside the
    // names array, and after a healthy prefix of bytes.
    let proxy = ChaosProxy::start(
        &listen,
        &daemon.socket,
        ChaosSchedule::Cycle(vec![
            Fault::TornFrame { after_bytes: 3 },
            Fault::TornFrame { after_bytes: 17 },
            Fault::TornFrame { after_bytes: 33 },
        ]),
    )
    .expect("start proxy");

    for _ in 0..3 {
        let mut conn = Conn::open(&listen);
        // The proxy severs mid-line; depending on timing the client's
        // own write may already see EPIPE — that is the fault working,
        // not a failure. Either way: no hang, no daemon crash.
        let request = format!(
            "{}\n",
            Request::Run(run_names(&["fig5", "table2"])).to_json()
        );
        let _ = conn.writer.write_all(request.as_bytes());
        let mut line = String::new();
        let _ = conn.reader.read_line(&mut line);
    }
    assert_eq!(proxy.accepted(), 3);
    drop(proxy);

    // The daemon survived three torn frames: a direct, clean connection
    // still serves.
    let mut conn = daemon.connect();
    let (report, _) = conn.run(run_names(&["fig5"]));
    assert_eq!(report.ok, 1, "{report:?}");
    assert!(conn.health().ready);
    daemon.shutdown();
}

#[test]
fn slowloris_trickle_cannot_delay_other_clients() {
    let daemon = Daemon::spawn("slowloris", &["--write-timeout-ms", "500"]);
    let listen = temp_path("slowloris-proxy", ".sock");
    let proxy = ChaosProxy::start(
        &listen,
        &daemon.socket,
        ChaosSchedule::Cycle(vec![Fault::Slowloris {
            chunk_bytes: 2,
            stall_ms: 25,
        }]),
    )
    .expect("start proxy");

    // The slowloris victim dribbles its ~50-byte request 2 bytes per
    // 25 ms — its own request takes >500 ms to even arrive.
    let slow = std::thread::spawn(move || {
        let mut conn = Conn::open(&listen);
        let started = Instant::now();
        let (report, _) = conn.run(run_names(&["table2"]));
        (report, started.elapsed())
    });
    // Meanwhile direct clients observe normal service: every terminal
    // response lands well within the write deadline, because the
    // trickle only occupies its own connection's reader.
    let mut conn = daemon.connect();
    for _ in 0..5 {
        let started = Instant::now();
        let (report, _) = conn.run(run_names(&["fig5"]));
        assert_eq!(report.ok, 1, "{report:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "clean client delayed behind the slowloris"
        );
    }
    let (slow_report, slow_elapsed) = slow.join().expect("slowloris run");
    assert_eq!(slow_report.ok, 1, "the trickled request still completes");
    assert!(
        slow_elapsed >= Duration::from_millis(300),
        "trickle was actually slow: {slow_elapsed:?}"
    );
    drop(proxy);
    daemon.shutdown();
}

#[test]
fn seeded_chaos_storm_is_deterministic_and_survivable() {
    let daemon = Daemon::spawn("storm", &[]);
    let listen = temp_path("storm-proxy", ".sock");
    let seed = 0xDAC_2001;
    let schedule = ChaosSchedule::Seeded { seed };
    let proxy = ChaosProxy::start(&listen, &daemon.socket, schedule).expect("start proxy");

    // Drive 12 connections through whatever the seed dictates. Client
    // outcomes vary by fault (torn connections error out; that is the
    // weather, not the assertion) — the daemon must survive them all.
    for i in 0..12 {
        let listen = listen.clone();
        let handle = std::thread::spawn(move || {
            let writer = match UnixStream::connect(&listen) {
                Ok(s) => s,
                Err(_) => return,
            };
            let _ = writer.set_read_timeout(Some(Duration::from_secs(10)));
            let mut reader = BufReader::new(match writer.try_clone() {
                Ok(c) => c,
                Err(_) => return,
            });
            let mut writer = writer;
            let request = format!(
                "{}\n",
                Request::Run(run_names(&[["fig5", "table2", "fig1"][i % 3]])).to_json()
            );
            let _ = writer.write_all(request.as_bytes());
            // Read whatever comes back until EOF/timeout/terminal line.
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if line.contains("\"report\"") {
                            break;
                        }
                    }
                }
            }
        });
        handle.join().expect("storm client");
    }

    // Determinism: connection i got the seed's fault i. Each flood client
    // read its report, so the daemon had answered every garbage line
    // ahead of it with a typed error; a torn frame adds at most one
    // more (its partial line, if the daemon greeted before the cut).
    assert_eq!(proxy.accepted(), 12);
    let schedule = ChaosSchedule::Seeded { seed };
    let faults: Vec<Fault> = (0..proxy.accepted())
        .map(|i| schedule.fault_for(i))
        .collect();
    let garbage: u64 = faults
        .iter()
        .map(|f| match f {
            Fault::GarbageFlood { lines } => *lines as u64,
            _ => 0,
        })
        .sum();
    let torn = faults
        .iter()
        .filter(|f| matches!(f, Fault::TornFrame { .. }))
        .count() as u64;
    drop(proxy);

    // The daemon took the storm: still ready, still serving, typed
    // errors only (the process never panicked or exited).
    let mut conn = daemon.connect();
    let stats = conn.stats();
    let typed = stats.protocol_errors + stats.invalid_specs;
    assert!(
        garbage > 0 && (garbage..=garbage + torn).contains(&typed),
        "{typed} typed errors for {garbage} garbage lines and {torn} torn frames: {faults:?}"
    );
    assert!(conn.health().ready);
    let (report, _) = conn.run(run_names(&["fig5", "table2"]));
    assert_eq!(report.ok, 2, "{report:?}");
    daemon.shutdown();
}
