//! Socket-level fault injection for `nanopowerd`: a deterministic,
//! seeded chaos proxy.
//!
//! The proxy sits between a real client and a real daemon on unix
//! sockets and injects the failure modes a production service front-end
//! actually meets: torn frames (a request cut mid-line by a dying
//! client), slowloris trickles (a request dribbled byte-wise with long
//! stalls), malformed-JSON floods, and clean passthrough as the
//! control. Which connection gets which fault is decided by a
//! [`ChaosSchedule`] — either an explicit cycle (tests pin exact
//! behavior to exact connections) or a seeded mix that is a pure
//! function of `(seed, connection index)`, so a CI run with a fixed
//! seed replays byte-identically.
//!
//! Everything here is observation-side: the proxy never interprets the
//! protocol beyond byte counts, so it cannot mask a daemon bug by
//! "helpfully" reframing traffic. The daemon-facing assertions (typed
//! protocol errors, no panics, spill integrity) live in the chaos
//! integration suite; this module only produces the weather.

use crate::accept::{accept_until, Stop};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One per-connection fault, applied to the client→daemon byte stream
/// (the daemon→client direction is always a clean copy, so every typed
/// response the daemon manages to produce reaches the test intact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Clean bidirectional copy — the control connection.
    Passthrough,
    /// Forward exactly `after_bytes` request bytes, then sever both
    /// directions. Landing inside a JSON line makes this the classic
    /// torn frame / mid-line disconnect.
    TornFrame {
        /// Request bytes forwarded before the cut.
        after_bytes: usize,
    },
    /// Trickle the request through in `chunk_bytes` pieces separated by
    /// `stall_ms` pauses — the slowloris client.
    Slowloris {
        /// Bytes forwarded per trickle.
        chunk_bytes: usize,
        /// Pause between trickles, milliseconds.
        stall_ms: u64,
    },
    /// Inject `lines` malformed JSON lines ahead of the client's real
    /// traffic, then pass through.
    GarbageFlood {
        /// Malformed lines injected.
        lines: usize,
    },
}

/// The malformed payloads a [`Fault::GarbageFlood`] rotates through:
/// every one must draw a typed protocol error, never a panic or a
/// dropped connection. Torn escapes, deep nesting, huge numbers, raw
/// control bytes, truncated objects — the `jsonio` hardening cases,
/// fired over the wire.
pub fn garbage_line(index: usize) -> String {
    const FIXED: &[&str] = &[
        "{\"run\": {\"names\": [\"fig5\"",
        "not json at all",
        "{\"run\": {\"names\": \"fig5\"}}",
        "{\"run\": {\"deadline_ms\": 1e999}}",
        "{\"mystery\": {}}",
        "[1, 2, 3]",
        "{\"run\": {\"names\": [\"\\udead\"]}}",
        "{\"run\": {\"csv\": \"yes\"}}",
        "\u{7f}\u{1}\u{2}",
        "{}",
    ];
    match index % (FIXED.len() + 2) {
        i if i < FIXED.len() => FIXED[i].to_owned(),
        i if i == FIXED.len() => format!("{}1{}", "[".repeat(200), "]".repeat(200)),
        _ => format!("{{\"run\": {{\"names\": [\"{}\"]", "x".repeat(300)),
    }
}

/// Decides which [`Fault`] each accepted connection gets, purely from
/// the connection's accept index — the whole run is deterministic.
#[derive(Debug, Clone)]
pub enum ChaosSchedule {
    /// Connection `i` gets `faults[i % faults.len()]` — tests pin exact
    /// faults to exact connections.
    Cycle(Vec<Fault>),
    /// A seeded pseudo-random mix: the fault for connection `i` is a
    /// pure function of `(seed, i)`, independent of accept timing.
    Seeded {
        /// The schedule seed; equal seeds replay equal schedules.
        seed: u64,
    },
}

impl ChaosSchedule {
    /// The fault assigned to accept index `index`.
    pub fn fault_for(&self, index: usize) -> Fault {
        match self {
            ChaosSchedule::Cycle(faults) if faults.is_empty() => Fault::Passthrough,
            ChaosSchedule::Cycle(faults) => faults[index % faults.len()],
            ChaosSchedule::Seeded { seed } => {
                // Mix the index into the seed (splitmix-style odd
                // constant) so neighbouring connections decorrelate.
                let mixed = seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut rng = StdRng::seed_from_u64(mixed);
                match rng.random_range(0..4u32) {
                    0 => Fault::Passthrough,
                    1 => Fault::TornFrame {
                        after_bytes: rng.random_range(1..40),
                    },
                    2 => Fault::Slowloris {
                        chunk_bytes: rng.random_range(1..4),
                        stall_ms: rng.random_range(5..30),
                    },
                    _ => Fault::GarbageFlood {
                        lines: rng.random_range(1..8),
                    },
                }
            }
        }
    }
}

/// A running fault-injection proxy between a listen socket and an
/// upstream daemon socket. Dropping it wakes and ends the blocking
/// accept loop and removes the listen socket; in-flight pumps end when
/// their streams close.
#[derive(Debug)]
pub struct ChaosProxy {
    listen_path: PathBuf,
    stop: Arc<Stop>,
    accepted: Arc<AtomicUsize>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts proxying `listen` → `upstream` under `schedule`.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure (a stale file at `listen`
    /// is cleared first — the proxy is test scaffolding, not a daemon).
    pub fn start(
        listen: impl AsRef<Path>,
        upstream: impl AsRef<Path>,
        schedule: ChaosSchedule,
    ) -> std::io::Result<ChaosProxy> {
        let listen_path = listen.as_ref().to_path_buf();
        let upstream = upstream.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&listen_path);
        let listener = UnixListener::bind(&listen_path)?;
        let stop = Arc::new(Stop::new());
        let accepted = Arc::new(AtomicUsize::new(0));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                let _ = accept_until(&listener, &stop, |conn| {
                    let Ok(client) = conn else {
                        return;
                    };
                    let index = accepted.fetch_add(1, Ordering::SeqCst);
                    let fault = schedule.fault_for(index);
                    match UnixStream::connect(&upstream) {
                        Ok(daemon) => proxy_connection(client, daemon, fault),
                        // No upstream: drop the client — exactly what a
                        // crashed daemon looks like.
                        Err(_) => drop(client),
                    }
                });
            })
        };
        Ok(ChaosProxy {
            listen_path,
            stop,
            accepted,
            accept_thread: Some(accept_thread),
        })
    }

    /// Connections accepted so far.
    pub fn accepted(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.request();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.listen_path);
    }
}

/// Wires one accepted client to one upstream connection: the response
/// direction is a clean copy; the request direction applies `fault`.
/// Pump threads are detached — they end when either side closes.
fn proxy_connection(client: UnixStream, daemon: UnixStream, fault: Fault) {
    let (Ok(client_rx), Ok(daemon_rx)) = (client.try_clone(), daemon.try_clone()) else {
        return;
    };
    std::thread::spawn(move || pump_responses(daemon_rx, client));
    std::thread::spawn(move || pump_requests(client_rx, daemon, fault));
}

/// daemon → client: clean copy until EOF or error.
fn pump_responses(mut from: UnixStream, mut to: UnixStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).and_then(|()| to.flush()).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Both);
}

/// client → daemon: the faulted direction.
fn pump_requests(mut from: UnixStream, mut to: UnixStream, fault: Fault) {
    match fault {
        Fault::Passthrough => {
            copy_bytes(&mut from, &mut to, usize::MAX, 1, Duration::ZERO);
        }
        Fault::TornFrame { after_bytes } => {
            copy_bytes(&mut from, &mut to, after_bytes, usize::MAX, Duration::ZERO);
            // Sever both directions mid-frame: the daemon sees a torn
            // line; the client sees its connection die.
            let _ = to.shutdown(std::net::Shutdown::Both);
            let _ = from.shutdown(std::net::Shutdown::Both);
            return;
        }
        Fault::Slowloris {
            chunk_bytes,
            stall_ms,
        } => {
            copy_bytes(
                &mut from,
                &mut to,
                usize::MAX,
                chunk_bytes.max(1),
                Duration::from_millis(stall_ms),
            );
        }
        Fault::GarbageFlood { lines } => {
            for i in 0..lines {
                let line = format!("{}\n", garbage_line(i));
                if to.write_all(line.as_bytes()).is_err() {
                    break;
                }
            }
            let _ = to.flush();
            copy_bytes(&mut from, &mut to, usize::MAX, 1, Duration::ZERO);
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Write);
}

/// Copies up to `budget` bytes in pieces of at most `chunk`, sleeping
/// `stall` between pieces (chunk of 1 with zero stall degenerates to a
/// plain buffered copy).
fn copy_bytes(
    from: &mut UnixStream,
    to: &mut UnixStream,
    mut budget: usize,
    chunk: usize,
    stall: Duration,
) {
    let throttled = chunk < 4096 && !stall.is_zero();
    let mut buf = [0u8; 4096];
    while budget > 0 {
        let want = if throttled {
            chunk.min(budget).min(buf.len())
        } else {
            budget.min(buf.len())
        };
        match from.read(&mut buf[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).and_then(|()| to.flush()).is_err() {
                    break;
                }
                budget -= n;
                if throttled {
                    std::thread::sleep(stall);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanopower::proto::Request;

    #[test]
    fn seeded_schedule_is_deterministic_and_varied() {
        let schedule = ChaosSchedule::Seeded { seed: 42 };
        let replay = ChaosSchedule::Seeded { seed: 42 };
        let faults: Vec<Fault> = (0..32).map(|i| schedule.fault_for(i)).collect();
        let again: Vec<Fault> = (0..32).map(|i| replay.fault_for(i)).collect();
        assert_eq!(faults, again, "same seed, same schedule");
        let other: Vec<Fault> = (0..32)
            .map(|i| ChaosSchedule::Seeded { seed: 43 }.fault_for(i))
            .collect();
        assert_ne!(faults, other, "different seed, different schedule");
        // The mix actually mixes: all four kinds appear in 32 draws.
        let kind = |f: &Fault| match f {
            Fault::Passthrough => 0,
            Fault::TornFrame { .. } => 1,
            Fault::Slowloris { .. } => 2,
            Fault::GarbageFlood { .. } => 3,
        };
        let mut seen = [false; 4];
        for f in &faults {
            seen[kind(f)] = true;
        }
        assert_eq!(seen, [true; 4], "{faults:?}");
    }

    #[test]
    fn cycle_schedule_wraps_and_empty_cycle_passes_through() {
        let cycle =
            ChaosSchedule::Cycle(vec![Fault::Passthrough, Fault::GarbageFlood { lines: 3 }]);
        assert_eq!(cycle.fault_for(0), Fault::Passthrough);
        assert_eq!(cycle.fault_for(1), Fault::GarbageFlood { lines: 3 });
        assert_eq!(cycle.fault_for(2), Fault::Passthrough);
        assert_eq!(
            ChaosSchedule::Cycle(Vec::new()).fault_for(7),
            Fault::Passthrough
        );
    }

    #[test]
    fn every_garbage_line_is_rejected_typed_by_the_parser() {
        for i in 0..40 {
            let line = garbage_line(i);
            assert!(
                Request::parse(line.trim_end()).is_err(),
                "garbage line {i} parsed as a request: {line:?}"
            );
        }
    }
}
