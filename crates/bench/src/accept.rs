//! Blocking accept loops that a stop request ends at once.
//!
//! `nanopowerd` and the chaos proxy each keep one thread blocked in a
//! listener's `accept`, so a connection is taken the moment it arrives.
//! To end such a loop, [`Stop::request`] sets a flag and then connects
//! once to the listener's own address: the blocked `accept` returns that
//! connection, and [`accept_until`] sees the flag and drops it unserved.
//! Nothing polls, so neither a new connection nor a stop waits out a
//! sleep.

use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Pause before a failed wake connect is retried.
const WAKE_RETRY: Duration = Duration::from_millis(10);

/// Pause after an accept error, so a persistent one (the process out of
/// descriptors, say) does not spin the loop.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(100);

/// A listener an accept loop blocks on and a [`Stop`] wakes.
pub trait Listener {
    /// One accepted connection.
    type Stream;

    /// Blocks until the next connection arrives.
    ///
    /// # Errors
    ///
    /// The listener's accept error.
    fn accept_stream(&self) -> io::Result<Self::Stream>;

    /// The address whose connect wakes a blocked [`accept_stream`](Listener::accept_stream).
    ///
    /// # Errors
    ///
    /// The listener has no address a client can connect to.
    fn wake_addr(&self) -> io::Result<WakeAddr>;
}

/// Where a waking connect goes: the listener's own endpoint.
#[derive(Debug, Clone)]
pub enum WakeAddr {
    /// A unix socket path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP address, with an unspecified IP mapped to loopback.
    Tcp(SocketAddr),
}

impl WakeAddr {
    /// Connects once and hangs up.
    fn knock(&self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            WakeAddr::Unix(path) => UnixStream::connect(path).map(drop),
            WakeAddr::Tcp(addr) => TcpStream::connect(addr).map(drop),
        }
    }
}

impl Listener for TcpListener {
    type Stream = TcpStream;

    fn accept_stream(&self) -> io::Result<TcpStream> {
        self.accept().map(|(stream, _)| stream)
    }

    fn wake_addr(&self) -> io::Result<WakeAddr> {
        let mut addr = self.local_addr()?;
        match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        Ok(WakeAddr::Tcp(addr))
    }
}

#[cfg(unix)]
impl Listener for UnixListener {
    type Stream = UnixStream;

    fn accept_stream(&self) -> io::Result<UnixStream> {
        self.accept().map(|(stream, _)| stream)
    }

    fn wake_addr(&self) -> io::Result<WakeAddr> {
        let addr = self.local_addr()?;
        let path = addr.as_pathname().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "an unnamed unix socket cannot be woken",
            )
        })?;
        Ok(WakeAddr::Unix(path.to_path_buf()))
    }
}

/// The stop request shared by one [`accept_until`] loop and whoever ends
/// it.
#[derive(Debug, Default)]
pub struct Stop {
    requested: AtomicBool,
    /// The running loop's wake address: set before its first flag check,
    /// cleared once it has returned.
    waking: Mutex<Option<WakeAddr>>,
}

impl Stop {
    /// A stop not yet requested.
    pub fn new() -> Stop {
        Stop::default()
    }

    /// Whether [`Stop::request`] has been called.
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }

    /// Sets the flag, then wakes a loop blocked in `accept` by connecting
    /// once to its listener. A failed connect is retried every 10 ms until
    /// one lands or the loop has returned, so a transient failure (the
    /// process out of descriptors, say) cannot leave the loop blocked; a
    /// unix socket file removed while the loop runs can never be reached,
    /// and then this does not return. With no loop running it returns at
    /// once.
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        loop {
            let waking = self
                .waking
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            match waking {
                Some(addr) if addr.knock().is_err() => std::thread::sleep(WAKE_RETRY),
                _ => return,
            }
        }
    }
}

/// Accepts on `listener` until `stop` is requested, handing each
/// connection, or accept error, to `serve` on this thread. The flag is
/// read after every accept, so the connection a stop's wake makes is
/// dropped unserved; an accept error is followed by a 100 ms pause. One
/// loop per [`Stop`].
///
/// # Errors
///
/// The listener has no wake address; nothing is accepted then.
pub fn accept_until<L: Listener>(
    listener: &L,
    stop: &Stop,
    mut serve: impl FnMut(io::Result<L::Stream>),
) -> io::Result<()> {
    let wake = listener.wake_addr()?;
    *stop.waking.lock().unwrap_or_else(PoisonError::into_inner) = Some(wake);
    while !stop.is_requested() {
        let conn = listener.accept_stream();
        if stop.is_requested() {
            break;
        }
        let failed = conn.is_err();
        serve(conn);
        if failed {
            std::thread::sleep(ACCEPT_ERROR_PAUSE);
        }
    }
    *stop.waking.lock().unwrap_or_else(PoisonError::into_inner) = None;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Runs a loop on `listener` in a thread, makes three connections
    /// with `connect`, and returns how many the loop served once `stop`
    /// has ended it.
    fn served_until_stopped<L>(
        listener: L,
        connect: impl Fn() -> io::Result<()>,
    ) -> io::Result<usize>
    where
        L: Listener + Send + 'static,
    {
        let stop = Arc::new(Stop::new());
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0;
                let outcome = accept_until(&listener, &stop, |conn| {
                    served += usize::from(conn.is_ok());
                    let _ = ready_tx.send(());
                });
                outcome.map(|()| served)
            })
        };
        for _ in 0..3 {
            connect()?;
            ready_rx.recv().map_err(io::Error::other)?;
        }
        stop.request();
        handle
            .join()
            .map_err(|_| io::Error::other("accept thread panicked"))?
    }

    #[test]
    fn a_tcp_loop_on_an_unspecified_ip_is_woken_through_loopback() -> io::Result<()> {
        let listener = TcpListener::bind("0.0.0.0:0")?;
        let port = listener.local_addr()?.port();
        let served = served_until_stopped(listener, || {
            TcpStream::connect(("127.0.0.1", port)).map(drop)
        })?;
        assert_eq!(served, 3, "the wake is not served");
        Ok(())
    }

    #[cfg(unix)]
    #[test]
    fn a_unix_loop_stops_and_its_wake_is_not_served() -> io::Result<()> {
        let path = std::env::temp_dir().join(format!("np-accept-unit-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let served = served_until_stopped(listener, || UnixStream::connect(&path).map(drop));
        let _ = std::fs::remove_file(&path);
        assert_eq!(served?, 3, "the wake is not served");
        Ok(())
    }

    #[test]
    fn a_request_with_no_loop_running_returns_at_once() -> io::Result<()> {
        let stop = Stop::new();
        stop.request();
        assert!(stop.is_requested());
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut served = 0;
        accept_until(&listener, &stop, |_| served += 1)?;
        assert_eq!(
            served, 0,
            "a loop started after the request accepts nothing"
        );
        Ok(())
    }
}
