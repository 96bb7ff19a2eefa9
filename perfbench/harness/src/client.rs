//! A closed-loop `nanopowerd` client: each connection sends its next
//! request only after the previous reply's terminal line arrived.

use nanopower::proto::{RecordMsg, ReportMsg, Response, StatsMsg};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One connection, greeted and ready for requests.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    /// Connects and consumes the hello line.
    ///
    /// # Errors
    ///
    /// When the socket refuses or the greeting is not a hello.
    pub fn connect(path: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(path)
            .map_err(|e| format!("cannot connect to {}: {e}", path.display()))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("cannot clone socket: {e}"))?;
        let mut conn = Conn {
            reader: BufReader::new(stream),
            writer,
        };
        match conn.read()? {
            Response::Hello(_) => Ok(conn),
            other => Err(format!("expected hello, got {other:?}")),
        }
    }

    fn read(&mut self) -> Result<Response, String> {
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

    /// Sends one request line and reads its records up to the terminal
    /// line, which is returned last.
    ///
    /// # Errors
    ///
    /// On I/O failure or an unparseable response line.
    pub fn call(&mut self, line: &str) -> Result<Vec<Response>, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send failed: {e}"))?;
        let mut replies = Vec::new();
        loop {
            let response = self.read()?;
            let terminal = !matches!(response, Response::Record(_));
            replies.push(response);
            if terminal {
                return Ok(replies);
            }
        }
    }
}

/// The daemon's lifetime counters, over a fresh connection.
///
/// # Errors
///
/// When the daemon is unreachable or answers something else.
pub fn stats(path: &Path) -> Result<StatsMsg, String> {
    let mut conn = Conn::connect(path)?;
    match conn.call("{\"stats\": {}}")?.pop() {
        Some(Response::Stats(stats)) => Ok(stats),
        other => Err(format!("expected stats, got {other:?}")),
    }
}

/// How one reply is judged.
#[derive(Debug)]
pub enum Verdict {
    /// The request succeeded; `checked` outputs were compared against a
    /// reference and `correct` of them matched.
    Done {
        /// Outputs compared.
        checked: u64,
        /// Outputs equal to their reference.
        correct: u64,
    },
    /// The request failed or was refused (counted in `failed`).
    Failed(String),
    /// A workload self-check broke: the run stops and fails.
    Fatal(String),
}

/// Splits a reply into its records and terminal report, or returns the
/// typed refusal that ended it.
pub fn split_reply(replies: &[Response]) -> Result<(Vec<&RecordMsg>, &ReportMsg), &Response> {
    let records = replies
        .iter()
        .filter_map(|r| match r {
            Response::Record(rec) => Some(rec),
            _ => None,
        })
        .collect();
    match replies.last() {
        Some(Response::Report(report)) => Ok((records, report)),
        // `Conn::call` returns at least the terminal line.
        other => Err(other.expect("a reply ends with a terminal line")),
    }
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// Client-observed latency of every completed request, ms, with its
    /// request index and its completion time, seconds after the loop
    /// started.
    pub latencies: Vec<(u64, f64, f64)>,
    /// Requests sent (indices `0..attempted`).
    pub attempted: u64,
    /// Requests failed or refused.
    pub failed: u64,
    /// Outputs compared against a reference.
    pub checked: u64,
    /// Outputs equal to their reference.
    pub correct: u64,
    /// Wall time from the first send to the last terminal line.
    pub elapsed: Duration,
}

/// Runs a closed loop over `conns` connections until `seconds` have
/// passed or `max_ops` requests were sent. Request `k` is `line(k)`;
/// `judge(k, replies)` classifies each reply.
///
/// # Errors
///
/// On a connection failure or a [`Verdict::Fatal`] self-check.
pub fn closed_loop<L, J>(
    path: &Path,
    conns: usize,
    seconds: f64,
    max_ops: u64,
    line: L,
    judge: J,
) -> Result<LoopOutcome, String>
where
    L: Fn(u64) -> String + Sync,
    J: Fn(u64, &[Response]) -> Verdict + Sync,
{
    let mut connections = (0..conns.max(1))
        .map(|_| Conn::connect(path))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let fatal: Mutex<Option<String>> = Mutex::new(None);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let parts: Vec<Result<LoopOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .map(|conn| {
                let (next, stop, fatal, line, judge) = (&next, &stop, &fatal, &line, &judge);
                scope.spawn(move || {
                    let mut part = LoopOutcome::default();
                    while !stop.load(Ordering::Relaxed) && start.elapsed() < budget {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= max_ops {
                            break;
                        }
                        let text = line(k);
                        let sent = Instant::now();
                        let replies = conn.call(&text)?;
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        let done_s = start.elapsed().as_secs_f64();
                        part.attempted += 1;
                        match judge(k, &replies) {
                            Verdict::Done { checked, correct } => {
                                part.latencies.push((k, ms, done_s));
                                part.checked += checked;
                                part.correct += correct;
                            }
                            Verdict::Failed(reason) => {
                                part.failed += 1;
                                eprintln!("request {k} failed: {reason}");
                            }
                            Verdict::Fatal(reason) => {
                                stop.store(true, Ordering::Relaxed);
                                *fatal.lock().expect("fatal slot poisoned") = Some(reason);
                                break;
                            }
                        }
                    }
                    Ok(part)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    if let Some(reason) = fatal.into_inner().expect("fatal slot poisoned") {
        return Err(reason);
    }
    let mut total = LoopOutcome {
        elapsed,
        ..LoopOutcome::default()
    };
    for part in parts {
        let part = part?;
        total.latencies.extend(part.latencies);
        total.attempted += part.attempted;
        total.failed += part.failed;
        total.checked += part.checked;
        total.correct += part.correct;
    }
    total.latencies.sort_by_key(|&(k, _, _)| k);
    Ok(total)
}
