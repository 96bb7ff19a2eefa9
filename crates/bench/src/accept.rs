//! Blocking accept loops that a stop request ends at once.
//!
//! `nanopowerd` and the chaos proxy each keep one thread blocked in a
//! listener's `accept`, so a connection is taken the moment it arrives.
//! To end such a loop, [`Stop::request`] sets a flag and then shuts down
//! a duplicate of the listening socket. On Linux that makes the blocked
//! `accept`, and every later one, fail with `EINVAL` at once, so
//! [`accept_until`] sees the flag and returns. The wake never goes
//! through the listener's address, so a unix socket whose file was
//! removed still stops. Nothing polls, so neither a new connection nor a
//! stop waits out a sleep.

use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsFd, OwnedFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Pause after an accept error, so a persistent one (the process out of
/// descriptors, say) does not spin the loop.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(100);

/// A listening socket an accept loop blocks on and a [`Stop`] wakes.
pub trait Listener: AsFd {
    /// One accepted connection.
    type Stream;

    /// Blocks until the next connection arrives.
    ///
    /// # Errors
    ///
    /// The listener's accept error.
    fn accept_stream(&self) -> io::Result<Self::Stream>;
}

impl Listener for TcpListener {
    type Stream = TcpStream;

    fn accept_stream(&self) -> io::Result<TcpStream> {
        self.accept().map(|(stream, _)| stream)
    }
}

impl Listener for UnixListener {
    type Stream = UnixStream;

    fn accept_stream(&self) -> io::Result<UnixStream> {
        self.accept().map(|(stream, _)| stream)
    }
}

/// The stop request shared by one [`accept_until`] loop and whoever ends
/// it.
#[derive(Debug, Default)]
pub struct Stop {
    requested: AtomicBool,
    /// A duplicate of the running loop's listening socket: set before its
    /// first flag check, taken by the request that shuts it down.
    waking: Mutex<Option<OwnedFd>>,
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

    /// Sets the flag, then shuts down the running loop's listening
    /// socket, which wakes its blocked `accept`. The shutdown lasts, so a
    /// loop between its flag check and `accept` wakes too. With no loop
    /// running it only sets the flag.
    pub fn request(&self) {
        self.requested.store(true, Ordering::SeqCst);
        let waking = self
            .waking
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(socket) = waking {
            // `shutdown(2)` acts on the socket whatever its family; the
            // stream type only carries the call.
            let _ = UnixStream::from(socket).shutdown(Shutdown::Both);
        }
    }
}

/// Accepts on `listener` until `stop` is requested, handing each
/// connection, or accept error, to `serve` on this thread. The flag is
/// read after every accept, so the error a stop's shutdown causes is
/// never served; any other accept error is followed by a 100 ms pause.
/// One loop per [`Stop`].
///
/// # Errors
///
/// The listening socket cannot be duplicated; nothing is accepted then.
pub fn accept_until<L: Listener>(
    listener: &L,
    stop: &Stop,
    mut serve: impl FnMut(io::Result<L::Stream>),
) -> io::Result<()> {
    let waking = listener.as_fd().try_clone_to_owned()?;
    *stop.waking.lock().unwrap_or_else(PoisonError::into_inner) = Some(waking);
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
    fn a_tcp_loop_on_an_unspecified_ip_stops() -> io::Result<()> {
        let listener = TcpListener::bind("0.0.0.0:0")?;
        let port = listener.local_addr()?.port();
        let served = served_until_stopped(listener, || {
            TcpStream::connect(("127.0.0.1", port)).map(drop)
        })?;
        assert_eq!(served, 3, "only the three connections are served");
        Ok(())
    }

    #[test]
    fn a_unix_loop_stops_and_its_wake_is_not_served() -> io::Result<()> {
        let path = std::env::temp_dir().join(format!("np-accept-unit-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let served = served_until_stopped(listener, || UnixStream::connect(&path).map(drop));
        let _ = std::fs::remove_file(&path);
        assert_eq!(served?, 3, "only the three connections are served");
        Ok(())
    }

    #[test]
    fn a_unix_loop_whose_socket_file_was_removed_still_stops() -> io::Result<()> {
        let path =
            std::env::temp_dir().join(format!("np-accept-unlinked-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let stop = Arc::new(Stop::new());
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let outcome = accept_until(&listener, &stop, |_| {
                    let _ = ready_tx.send(());
                });
                let _ = done_tx.send(());
                outcome
            })
        };
        // Once a connection is served the loop is running, so the stop
        // goes through the listening socket, not its file.
        drop(UnixStream::connect(&path)?);
        ready_rx.recv().map_err(io::Error::other)?;
        std::fs::remove_file(&path)?;
        stop.request();
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .map_err(|_| io::Error::other("the loop did not stop"))?;
        handle
            .join()
            .map_err(|_| io::Error::other("accept thread panicked"))?
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
