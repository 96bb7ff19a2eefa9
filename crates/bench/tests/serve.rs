//! Integration tests for the `nanopowerd` daemon: spawn the real
//! binary on a temp unix socket and talk `nanopowerd/v1` to it.
//!
//! Unix-only: the tests drive the `--socket` transport. The protocol
//! logic itself is transport-agnostic and unit-tested in
//! `nanopower::proto`.
#![cfg(unix)]

use nanopower::proto::{
    HealthMsg, Hello, RecordMsg, ReportMsg, Request, Response, RunRequest, StatsMsg,
};
use nanopower::roadmap::TechNode;
use nanopower::spec::{GridSpec, NetlistTier, ScenarioSpec};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon on a temp socket, killed (and its socket removed)
/// on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns `nanopowerd serve --socket <tmp>` with extra flags and
    /// waits until the socket accepts connections.
    fn spawn(tag: &str, extra: &[&str]) -> Daemon {
        let socket =
            std::env::temp_dir().join(format!("nanopowerd-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_nanopowerd"))
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn nanopowerd");
        let daemon = Daemon { child, socket };
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(&daemon.socket).is_err() {
            assert!(
                Instant::now() < deadline,
                "daemon never opened {}",
                daemon.socket.display()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        daemon
    }

    fn connect(&self) -> Conn {
        Conn::open(&self.socket)
    }

    /// Sends `shutdown`, waits for the process to exit cleanly, and
    /// returns the time from the `shutdown` reply to the exit.
    fn shutdown(mut self) -> Duration {
        let mut conn = self.connect();
        conn.send(&Request::Shutdown);
        assert_eq!(conn.read(), Response::Shutdown);
        let exit_in = await_exit(&mut self.child);
        let _ = std::fs::remove_file(&self.socket);
        // Drop must not re-kill the reaped child.
        self.child = Command::new("true").spawn().expect("spawn true");
        exit_in
    }
}

/// Waits up to 10 s for `child` to exit successfully and returns how
/// long that took.
fn await_exit(child: &mut Child) -> Duration {
    let start = Instant::now();
    loop {
        match child.try_wait().expect("wait on daemon") {
            Some(status) => {
                assert!(status.success(), "daemon exit: {status}");
                return start.elapsed();
            }
            None if start.elapsed() < Duration::from_secs(10) => {
                std::thread::sleep(Duration::from_millis(1));
            }
            None => panic!("daemon ignored shutdown"),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One protocol connection with the hello already consumed.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    hello: Hello,
}

impl Conn {
    fn open(socket: &PathBuf) -> Conn {
        let writer = UnixStream::connect(socket).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone socket"));
        let mut conn = Conn {
            reader,
            writer,
            hello: Hello { artifacts: 0 },
        };
        match conn.read() {
            Response::Hello(hello) => conn.hello = hello,
            other => panic!("expected hello, got {other:?}"),
        }
        conn
    }

    fn send(&mut self, request: &Request) {
        self.writer
            .write_all(request.to_json().as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("send request");
    }

    fn send_raw(&mut self, line: &str) {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("send raw line");
    }

    fn read(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed unexpectedly");
        Response::parse(line.trim_end()).expect("parse response")
    }

    /// Runs a request to its terminal report, collecting the streamed
    /// records. Panics on `busy`.
    fn run(&mut self, request: RunRequest) -> (ReportMsg, Vec<RecordMsg>) {
        self.send(&Request::Run(request));
        self.finish_run()
    }

    /// Reads records until the terminal report (for requests already
    /// sent, typed or raw).
    fn finish_run(&mut self) -> (ReportMsg, Vec<RecordMsg>) {
        let mut records = Vec::new();
        loop {
            match self.read() {
                Response::Record(record) => records.push(record),
                Response::Report(report) => return (report, records),
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

    fn health(&mut self) -> HealthMsg {
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

fn run_specs(specs: Vec<ScenarioSpec>) -> RunRequest {
    RunRequest {
        names: Vec::new(),
        specs,
        csv: false,
        deadline_ms: Some(60_000),
    }
}

#[test]
fn serves_artifacts_and_memoizes_repeats() {
    let daemon = Daemon::spawn("memo", &["--workers", "2"]);
    let mut conn = daemon.connect();
    assert!(conn.hello.artifacts > 0, "registry is populated");

    let (report, records) = conn.run(run_names(&["fig5", "table2"]));
    assert_eq!(report.ok, 2, "fresh run succeeds: {report:?}");
    assert_eq!(report.memo_hits, 0);
    assert!(records.iter().all(|r| !r.memo && r.status == "ok"));
    // Fresh records stream in completion order, memo hits in request
    // order: pair them by name.
    let by_name = |records: &[RecordMsg]| {
        records
            .iter()
            .map(|r| (r.name.clone(), r.digest.clone()))
            .collect::<BTreeMap<_, _>>()
    };
    let fresh_digests = by_name(&records);

    // The repeat is served from the memo — same digests, no execution.
    let (report, records) = conn.run(run_names(&["fig5", "table2"]));
    assert_eq!(report.ok, 2);
    assert_eq!(report.memo_hits, 2, "repeat hits the memo: {report:?}");
    assert!(records.iter().all(|r| r.memo && r.status == "ok"));
    // Equal maps: the same names, each with the same digest.
    assert_eq!(fresh_digests, by_name(&records), "memo preserves digests");

    // Unknown artifacts surface as typed error records, not hangups.
    let (report, records) = conn.run(run_names(&["no-such-artifact"]));
    assert_eq!(report.failures, 1);
    assert_eq!(records[0].status, "error");
    assert!(
        records[0]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("no-such-artifact"),
        "{records:?}"
    );

    let stats = conn.stats();
    assert_eq!(stats.memo_hits, 2);
    assert_eq!(stats.served, 3);
    assert_eq!(stats.memo_entries, 2);
    daemon.shutdown();
}

#[test]
fn concurrent_clients_all_complete() {
    let daemon = Daemon::spawn("conc", &["--max-inflight", "2", "--queue-depth", "16"]);
    let names = ["fig1", "fig2", "fig3", "fig4", "fig5", "table1"];
    std::thread::scope(|scope| {
        for t in 0..4 {
            let daemon = &daemon;
            let names = &names;
            scope.spawn(move || {
                let mut conn = daemon.connect();
                for i in 0..6 {
                    let name = names[(t + i) % names.len()];
                    let (report, _) = conn.run(run_names(&[name]));
                    assert_eq!(report.ok, 1, "client {t} req {i}: {report:?}");
                }
            });
        }
    });
    let mut conn = daemon.connect();
    let stats = conn.stats();
    assert_eq!(stats.served, 24, "{stats:?}");
    assert!(
        stats.memo_hits > 0,
        "rotating names must repeat into the memo: {stats:?}"
    );
    daemon.shutdown();
}

#[test]
fn deadline_expiry_cancels_with_typed_records() {
    // The hold keeps the admission slot busy well past the 20 ms
    // deadline, so the engine starts with an already-cancelled token:
    // every job becomes a `cancelled` placeholder, deterministically.
    let daemon = Daemon::spawn("deadline", &["--hold-ms", "300"]);
    let mut conn = daemon.connect();
    let (report, records) = conn.run(RunRequest {
        names: vec!["fig5".into(), "table2".into()],
        specs: Vec::new(),
        csv: false,
        deadline_ms: Some(20),
    });
    assert!(report.interrupted, "{report:?}");
    assert_eq!(report.cancelled, 2, "{report:?}");
    assert_eq!(report.ok, 0);
    assert!(
        records.iter().all(|r| r.status == "cancelled"),
        "{records:?}"
    );

    // The same connection and daemon stay healthy for a fresh run.
    let (report, _) = conn.run(run_names(&["fig5"]));
    assert_eq!(report.ok, 1, "{report:?}");
    assert!(!report.interrupted);
    let stats = conn.stats();
    assert_eq!(stats.cancelled, 1, "{stats:?}");
    daemon.shutdown();
}

#[test]
fn saturated_gate_answers_busy_then_recovers() {
    // One slot, no queue, and each admitted request holds its slot for
    // 800 ms: a second concurrent request must see `busy`.
    let daemon = Daemon::spawn(
        "busy",
        &[
            "--max-inflight",
            "1",
            "--queue-depth",
            "0",
            "--hold-ms",
            "800",
        ],
    );
    let slow = {
        let mut conn = daemon.connect();
        std::thread::spawn(move || {
            let (report, _) = conn.run(run_names(&["fig5"]));
            assert_eq!(report.ok, 1, "{report:?}");
        })
    };
    // Wait until the daemon has actually admitted the slow request
    // (stats bypass the gate), then collide with its held slot.
    let mut conn = daemon.connect();
    let admitted_by = Instant::now() + Duration::from_secs(10);
    while conn.stats().accepted == 0 {
        assert!(Instant::now() < admitted_by, "slow request never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    conn.send(&Request::Run(run_names(&["table2"])));
    match conn.read() {
        Response::Busy { inflight, capacity } => {
            assert_eq!((inflight, capacity), (1, 1));
        }
        other => panic!("expected busy, got {other:?}"),
    }
    slow.join().expect("slow request completes");

    // Once the slot drains, the same connection succeeds.
    let (report, _) = conn.run(run_names(&["table2"]));
    assert_eq!(report.ok, 1, "{report:?}");
    let stats = conn.stats();
    assert_eq!(stats.rejected, 1, "{stats:?}");
    assert_eq!(stats.served, 2, "{stats:?}");
    daemon.shutdown();
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    let daemon = Daemon::spawn("proto", &[]);
    let mut conn = daemon.connect();
    for (raw, needle) in [
        ("{\"runn\": {}}", "unknown request `runn`"),
        ("not json at all", "unknown literal"),
        ("{\"run\": {\"names\": [1]}}", "array of strings"),
    ] {
        conn.send_raw(raw);
        match conn.read() {
            Response::Protocol { reason } => {
                assert!(reason.contains(needle), "`{raw}` -> {reason}");
            }
            other => panic!("expected protocol error, got {other:?}"),
        }
    }
    // Still serving after three malformed lines.
    let (report, _) = conn.run(run_names(&["fig5"]));
    assert_eq!(report.ok, 1);
    let stats = conn.stats();
    assert_eq!(stats.protocol_errors, 3, "{stats:?}");
    daemon.shutdown();
}

#[test]
fn spec_requests_render_memoize_and_digest_reordered_keys_equal() {
    let daemon = Daemon::spawn("spec", &["--workers", "2"]);
    let mut conn = daemon.connect();

    conn.send_raw(r#"{"run": {"specs": [{"activity": 0.2, "node": 70}]}}"#);
    let (report, records) = conn.finish_run();
    assert_eq!(report.ok, 1, "{report:?}");
    assert_eq!(records.len(), 1, "{records:?}");
    assert!(records[0].name.starts_with("spec:"), "{records:?}");
    assert!(!records[0].memo);
    let fresh = (records[0].name.clone(), records[0].digest.clone());

    // The same scenario with reordered keys and explicit defaults is the
    // same canonical digest: served from the memo without re-rendering.
    conn.send_raw(
        r#"{"run": {"specs": [{"node": 70, "workload_ratio": 1, "effective_fraction": 0.75, "activity": 0.2}]}}"#,
    );
    let (report, records) = conn.finish_run();
    assert_eq!(report.memo_hits, 1, "{report:?}");
    assert!(records[0].memo, "{records:?}");
    assert_eq!((records[0].name.clone(), records[0].digest.clone()), fresh);

    // A field violation draws a typed invalid_spec naming the field —
    // and the connection keeps serving.
    conn.send_raw(r#"{"run": {"specs": [{"node": 70, "activity": 42}]}}"#);
    match conn.read() {
        Response::InvalidSpec { field, reason } => {
            assert_eq!(field, "activity");
            assert!(reason.contains("(0, 1]"), "{reason}");
        }
        other => panic!("expected invalid_spec, got {other:?}"),
    }

    // Unknown `run` keys are rejected, never silently ignored: a typo'd
    // deadline must not demote a bounded request to an unbounded one.
    conn.send_raw(r#"{"run": {"names": ["fig5"], "deadlne_ms": 5}}"#);
    match conn.read() {
        Response::Protocol { reason } => assert!(reason.contains("deadlne_ms"), "{reason}"),
        other => panic!("expected protocol error, got {other:?}"),
    }

    let stats = conn.stats();
    assert_eq!(stats.invalid_specs, 1, "{stats:?}");
    assert_eq!(stats.protocol_errors, 1, "{stats:?}");
    assert_eq!(stats.memo_hits, 1, "{stats:?}");
    daemon.shutdown();
}

#[test]
fn over_budget_specs_draw_too_expensive_before_any_work() {
    let daemon = Daemon::spawn("cost", &["--max-spec-cost", "100"]);
    let mut conn = daemon.connect();
    let mut pricey = ScenarioSpec::at_node(TechNode::N70);
    pricey.grid = Some(GridSpec { resolution: 65 });
    let estimate = pricey.cost();
    assert!(estimate > 100, "test premise: the mesh leg is over budget");
    conn.send(&Request::Run(run_specs(vec![pricey])));
    match conn.read() {
        Response::TooExpensive {
            estimate: quoted,
            budget,
        } => {
            assert_eq!(quoted, estimate, "the rejection quotes the estimate");
            assert_eq!(budget, 100);
        }
        other => panic!("expected too_expensive, got {other:?}"),
    }

    // Rejected before any work: nothing admitted, served, or memoized.
    let stats = conn.stats();
    assert_eq!(stats.too_expensive, 1, "{stats:?}");
    assert_eq!(stats.accepted, 0, "{stats:?}");
    assert_eq!(stats.memo_entries, 0, "{stats:?}");

    // An in-budget spec on the same connection still runs.
    let (report, _) = conn.run(run_specs(vec![ScenarioSpec::at_node(TechNode::N70)]));
    assert_eq!(report.ok, 1, "{report:?}");
    daemon.shutdown();
}

#[test]
fn panicking_spec_is_quarantined_and_the_daemon_stays_ready() {
    let daemon = Daemon::spawn("quar", &["--workers", "2", "--max-inflight", "4"]);
    let mut conn = daemon.connect();
    let mut panicky = ScenarioSpec::at_node(TechNode::N70);
    panicky.chaos = Some("panic".into());

    // Healthy traffic on a second connection completes while the panic
    // lands — the quarantine is per-spec, never per-daemon.
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let mut side = daemon.connect();
            for _ in 0..3 {
                let (report, _) = side.run(run_names(&["fig5"]));
                assert_eq!(report.ok, 1, "{report:?}");
            }
        });
        let (report, records) = conn.run(run_specs(vec![panicky.clone()]));
        assert_eq!(report.failures, 1, "{report:?}");
        assert_eq!(records[0].status, "panicked", "{records:?}");
        assert!(
            records[0].error.as_deref().unwrap_or("").contains("chaos"),
            "the typed record carries the panic message: {records:?}"
        );
        handle.join().expect("concurrent client");
    });
    assert!(conn.health().ready, "the daemon absorbed the panic");

    // The identical spec is now rejected from quarantine O(1): a typed
    // `quarantined` record carrying the original panic message, with no
    // re-execution.
    let (report, records) = conn.run(run_specs(vec![panicky.clone()]));
    assert_eq!(report.failures, 1, "{report:?}");
    assert_eq!(records[0].status, "quarantined", "{records:?}");
    assert_eq!(records[0].duration_ms, 0.0, "no re-execution: {records:?}");
    assert!(
        records[0].error.as_deref().unwrap_or("").contains("chaos"),
        "{records:?}"
    );

    // The healthy twin (no chaos hook, so a different digest) runs fine
    // — quarantining the poisoned spec cannot shadow it.
    let mut healthy = panicky;
    healthy.chaos = None;
    let (report, records) = conn.run(run_specs(vec![healthy]));
    assert_eq!(report.ok, 1, "{report:?}");
    assert_eq!(records[0].status, "ok", "{records:?}");

    let stats = conn.stats();
    assert_eq!(stats.panicked, 1, "{stats:?}");
    assert_eq!(stats.quarantined, 1, "{stats:?}");
    assert_eq!(stats.quarantine_entries, 1, "{stats:?}");
    assert_eq!(conn.health().quarantine_entries, 1);
    daemon.shutdown();
}

/// A spec whose render takes long enough (a 257² mesh leg and a
/// 20k-cell netlist leg) that concurrent requests for it overlap.
fn slow_spec(node: TechNode) -> ScenarioSpec {
    let mut spec = ScenarioSpec::at_node(node);
    spec.grid = Some(GridSpec { resolution: 257 });
    spec.netlist = Some(NetlistTier {
        cells: 20_000,
        seed: 1,
    });
    spec
}

/// Sends every request on its own connection at the same instant and
/// collects each one's report and records, in request order.
fn run_at_once(daemon: &Daemon, requests: Vec<RunRequest>) -> Vec<(ReportMsg, Vec<RecordMsg>)> {
    let start = std::sync::Barrier::new(requests.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .into_iter()
            .map(|request| {
                let mut conn = daemon.connect();
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    conn.run(request)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

#[test]
fn identical_concurrent_requests_render_once() {
    let daemon = Daemon::spawn("flight", &["--workers", "2"]);
    let request = || run_specs(vec![slow_spec(TechNode::N70)]);
    let results = run_at_once(&daemon, vec![request(), request()]);
    let records: Vec<&RecordMsg> = results.iter().flat_map(|(_, r)| r).collect();
    assert_eq!(records.len(), 2, "{records:?}");
    assert!(records.iter().all(|r| r.status == "ok"), "{records:?}");
    // One request rendered; the other waited for that render and was
    // served its memoized output.
    assert_eq!(records.iter().filter(|r| !r.memo).count(), 1, "{records:?}");
    assert_eq!(records[0].digest, records[1].digest);
    let hits: u64 = results.iter().map(|(report, _)| report.memo_hits).sum();
    assert_eq!(hits, 1, "{results:?}");
    let stats = daemon.connect().stats();
    assert_eq!(stats.memo_hits, 1, "{stats:?}");
    assert_eq!(stats.memo_entries, 1, "{stats:?}");
    daemon.shutdown();
}

#[test]
fn opposite_order_requests_both_complete() {
    // Each request renders the key it claims first, then waits for the
    // one the other request claimed: neither waits while holding a key
    // the other needs, so both finish well inside their deadline.
    let daemon = Daemon::spawn("crossed", &["--workers", "2"]);
    let (a, b) = (slow_spec(TechNode::N70), slow_spec(TechNode::N50));
    let results = run_at_once(
        &daemon,
        vec![run_specs(vec![a.clone(), b.clone()]), run_specs(vec![b, a])],
    );
    for (report, records) in &results {
        assert!(!report.interrupted, "{report:?}");
        assert_eq!(
            (report.ok, report.failures, report.cancelled),
            (2, 0, 0),
            "{report:?}"
        );
        assert_eq!(records.len(), 2, "{records:?}");
    }
    // Two distinct keys: rendered once each, the repeats memo-served.
    let renders = results
        .iter()
        .flat_map(|(_, records)| records)
        .filter(|r| !r.memo)
        .count();
    assert_eq!(renders, 2, "{results:?}");
    let stats = daemon.connect().stats();
    assert_eq!(stats.memo_hits, 2, "{stats:?}");
    assert_eq!(stats.memo_entries, 2, "{stats:?}");
    daemon.shutdown();
}

#[test]
fn repeats_of_a_failing_key_each_report_their_own_error() {
    // A repeat waits for the first copy's render. When that render fails,
    // each repeat renders the key itself and reports its own typed error.
    // No deadline: a repeat waiting on a claim its own request took again
    // would hang, so the read gives up instead.
    let daemon = Daemon::spawn("repeat-fail", &["--workers", "2"]);
    let mut conn = daemon.connect();
    conn.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    // An unknown name, and a text-only artifact asked for as CSV.
    for (name, csv) in [("nope", false), ("table1", true)] {
        let mut request = run_names(&[name; 3]);
        request.csv = csv;
        request.deadline_ms = None;
        let (report, records) = conn.run(request);
        assert_eq!(
            (
                report.ok,
                report.failures,
                report.cancelled,
                report.memo_hits
            ),
            (0, 3, 0, 0),
            "{name}: {report:?}"
        );
        assert!(!report.interrupted, "{name}: {report:?}");
        assert_eq!(records.len(), 3, "{name}: {records:?}");
        assert!(
            records
                .iter()
                .all(|r| r.name == name && r.status == "error" && r.error.is_some()),
            "{name}: {records:?}"
        );
    }
    assert!(conn.health().ready);
    daemon.shutdown();
}

#[test]
fn waiters_of_a_cancelled_render_take_its_keys_up_in_any_order() {
    // The first request claims A and B, queued on its one worker behind
    // a blocker (the daemon's first 1025² unit solve, about a second),
    // and its deadline cancels them before they start, which releases
    // both claims. Two requests waiting for A and B in opposite order
    // then take the keys up. Neither may wait on a key the other claimed
    // after the release, so both finish with every record ok, well
    // inside their deadline.
    let daemon = Daemon::spawn("reclaim", &["--workers", "1", "--max-inflight", "3"]);
    let mut blocker = ScenarioSpec::at_node(TechNode::N100);
    blocker.grid = Some(GridSpec { resolution: 1025 });
    let (a, b) = (slow_spec(TechNode::N70), slow_spec(TechNode::N50));
    let mut first = daemon.connect();
    let mut doomed = run_specs(vec![blocker, a.clone(), b.clone()]);
    doomed.deadline_ms = Some(100);
    first.send(&Request::Run(doomed));
    // The first request claims A and B at once; the waiters arrive while
    // its blocker renders.
    std::thread::sleep(Duration::from_millis(200));
    let results = run_at_once(
        &daemon,
        vec![run_specs(vec![a.clone(), b.clone()]), run_specs(vec![b, a])],
    );
    let (report, records) = first.finish_run();
    assert!(report.interrupted, "{report:?}");
    assert_eq!(report.cancelled, 2, "A and B never started: {records:?}");
    for (report, records) in &results {
        assert!(!report.interrupted, "{report:?}");
        assert_eq!(
            (report.ok, report.failures, report.cancelled),
            (2, 0, 0),
            "{report:?}"
        );
        assert_eq!(records.len(), 2, "{records:?}");
    }
    assert!(daemon.connect().health().ready);
    daemon.shutdown();
}

#[test]
fn load_client_reports_its_run_and_hits_the_memo() {
    let daemon = Daemon::spawn("load", &["--workers", "2"]);
    let output = Command::new(env!("CARGO_BIN_EXE_nanopowerd"))
        .arg("load")
        .arg("--socket")
        .arg(&daemon.socket)
        .arg("--quick")
        .output()
        .expect("run load client");
    let summary = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "load client: {}: {summary}",
        output.status
    );
    assert!(
        summary.contains("2 connections x 5 requests: 10 ok, 0 errors,"),
        "{summary}"
    );
    assert!(summary.trim_end().ends_with(" memo hits"), "{summary}");
    let mut conn = daemon.connect();
    let stats = conn.stats();
    assert!(stats.memo_hits > 0, "rotation repeats names: {stats:?}");
    daemon.shutdown();
}

#[test]
fn shutdown_with_idle_connections_open_exits_at_once() {
    let daemon = Daemon::spawn("idle-exit", &[]);
    // Two clients that greet and then never send a line: their handlers
    // sit in a blocking read when `shutdown` arrives.
    let _idle = (daemon.connect(), daemon.connect());
    let exit_in = daemon.shutdown();
    assert!(
        exit_in < Duration::from_millis(500),
        "daemon took {exit_in:?} to exit after `shutdown`"
    );
}

#[test]
fn fresh_connections_are_greeted_at_once() {
    let daemon = Daemon::spawn("greet", &[]);
    let start = Instant::now();
    for _ in 0..20 {
        drop(daemon.connect());
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(150),
        "20 sequential connections took {took:?} to be greeted"
    );
    daemon.shutdown();
}

/// A handler thread's stack is one mapping of the daemon's address
/// space. Kept until shutdown, exited handlers' stacks would grow the map
/// count with every connection ever served; released as they exit, the
/// count levels off.
#[cfg(target_os = "linux")]
#[test]
fn exited_handlers_release_their_stacks() {
    let daemon = Daemon::spawn("reap", &[]);
    let maps_path = format!("/proc/{}/maps", daemon.child.id());
    let maps = || {
        std::fs::read_to_string(&maps_path)
            .expect("read the daemon's maps")
            .lines()
            .count()
    };
    let serve = |n: usize| {
        for _ in 0..n {
            drop(daemon.connect());
        }
    };
    serve(300);
    let after_300 = maps();
    serve(700);
    let after_1000 = maps();
    assert!(
        after_1000 * 10 <= after_300 * 11,
        "maps grew from {after_300} after 300 connections to {after_1000} after 1000"
    );
    daemon.shutdown();
}

/// `shutdown` wakes the acceptor by shutting down its listening socket,
/// not by connecting to the socket file, so a daemon whose file was
/// unlinked still replies and exits.
#[cfg(target_os = "linux")]
#[test]
fn a_daemon_whose_socket_file_was_unlinked_still_exits_on_shutdown() {
    let mut daemon = Daemon::spawn("unlinked", &[]);
    let mut conn = daemon.connect();
    std::fs::remove_file(&daemon.socket).expect("unlink the socket file");
    // A daemon that cannot wake its acceptor never replies: fail, not hang.
    conn.writer
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set a read timeout");
    let start = Instant::now();
    conn.send(&Request::Shutdown);
    assert_eq!(conn.read(), Response::Shutdown);
    await_exit(&mut daemon.child);
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "daemon took {took:?} to reply and exit"
    );
}

/// A daemon whose socket file was unlinked, and whose path another
/// daemon has bound since, leaves that daemon's file in place at exit.
#[cfg(target_os = "linux")]
#[test]
fn an_unlinked_daemon_leaves_the_path_to_a_newer_daemon() {
    let mut old = Daemon::spawn("rebound", &[]);
    let mut conn = old.connect();
    std::fs::remove_file(&old.socket).expect("unlink the socket file");
    let new = Daemon::spawn("rebound", &[]);
    conn.writer
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set a read timeout");
    conn.send(&Request::Shutdown);
    assert_eq!(conn.read(), Response::Shutdown);
    await_exit(&mut old.child);
    assert!(
        new.connect().health().ready,
        "the newer daemon is reachable"
    );
    new.shutdown();
}

#[test]
fn a_tcp_daemon_answers_shutdown_and_exits() {
    use std::net::{TcpListener, TcpStream};
    let port = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("find a free port")
        .port();
    let addr = format!("127.0.0.1:{port}");
    let child = Command::new(env!("CARGO_BIN_EXE_nanopowerd"))
        .args(["serve", "--tcp", &addr])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn nanopowerd");
    // Killed on drop if the test fails; it has no socket file.
    let mut daemon = Daemon {
        child,
        socket: PathBuf::new(),
    };
    let listening_by = Instant::now() + Duration::from_secs(10);
    let open = || loop {
        match TcpStream::connect(&addr) {
            Ok(stream) => {
                let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
                let mut hello = String::new();
                reader.read_line(&mut hello).expect("read hello");
                assert!(hello.contains("hello"), "{hello}");
                return (reader, stream);
            }
            Err(e) => {
                assert!(Instant::now() < listening_by, "never listened: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    };
    // An idle connection stays open across the shutdown.
    let _idle = open();
    let (mut reader, mut writer) = open();
    writeln!(writer, "{}", Request::Shutdown.to_json()).expect("send shutdown");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert_eq!(
        Response::parse(reply.trim_end()).expect("parse reply"),
        Response::Shutdown
    );
    await_exit(&mut daemon.child);
}

#[test]
fn shutdown_lets_an_in_flight_render_finish_then_exits() {
    // The hold keeps the spec request admitted long enough for the
    // shutdown to land while it is in flight.
    let mut daemon = Daemon::spawn("drain", &["--hold-ms", "300"]);
    let mut busy = daemon.connect();
    busy.send(&Request::Run(run_specs(vec![ScenarioSpec::at_node(
        TechNode::N70,
    )])));
    let mut control = daemon.connect();
    let admitted_by = Instant::now() + Duration::from_secs(10);
    while control.health().inflight == 0 {
        assert!(Instant::now() < admitted_by, "request never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    control.send(&Request::Shutdown);
    assert_eq!(control.read(), Response::Shutdown);
    // The in-flight request still gets its record and report.
    let (report, records) = busy.finish_run();
    assert_eq!(report.ok, 1, "{report:?}");
    assert_eq!(records.len(), 1, "{records:?}");
    assert_eq!(records[0].status, "ok", "{records:?}");
    await_exit(&mut daemon.child);
}
