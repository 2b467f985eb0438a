//! `parspeed-netio` — readiness polling for the serving tier.
//!
//! The event-loop frontend (the one TCP frontend of `parspeed-server`,
//! which the `parspeed-router` tier reuses) needs four things the
//! standard library does not provide: a way to wait for readiness on
//! many sockets at once, a way to change which events each socket is
//! watched for, a way for *other threads* (the batcher workers finishing
//! a reply) to wake the waiting loop, and a listening socket whose accept
//! queue is deeper than std's 128. This crate provides all four —
//! [`Poller`], [`WakePipe`] and [`listen`] — as a safe API over raw OS calls declared by hand: crates.io is
//! unreachable, so there is no `libc`/`mio`/runtime to lean on, and the
//! functions are declared `extern "C"` directly (the standard library
//! already links the platform libc, so the symbols resolve without any
//! build-script work).
//!
//! This is deliberately the **only crate in the workspace containing
//! `unsafe`**: every other crate (including the server that uses this
//! one) keeps `#![forbid(unsafe_code)]`. The unsafe surface is small —
//! five syscall wrappers and a pipe — and every public item is safe to
//! call.
//!
//! On Linux the backend is **epoll** in level-triggered mode:
//! level-triggering means a socket with unread bytes (or writable
//! space) reports ready on every wait until the condition clears, so
//! the loop can stop reading a connection under write backpressure and
//! simply re-enable interest later — no edge-tracking bookkeeping. On
//! other Unixes a **poll(2)** backend with the same API keeps the crate
//! portable (an interest table rebuilt into a `pollfd` array per wait —
//! fine for the fallback's ambitions).

#![warn(missing_docs)]

use std::io;
use std::time::Duration;

/// Which readiness events a registered descriptor is watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor has bytes to read (or a peer hangup).
    pub readable: bool,
    /// Wake when the descriptor has buffer space to write into.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle connection.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Writable only — a connection under write backpressure that has
    /// stopped being read.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// Both directions — a connection with queued output that is still
    /// being read.
    pub const BOTH: Interest = Interest { readable: true, writable: true };
    /// Neither — parked (still registered, reported only for errors).
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// Bytes (or a hangup) are available to read.
    pub readable: bool,
    /// Buffer space is available to write.
    pub writable: bool,
    /// The peer closed or the descriptor errored; the owner should
    /// read to EOF / tear the connection down.
    pub hangup: bool,
}

mod sys;

pub use sys::{Poller, WakePipe};

/// Converts an optional timeout to the millisecond argument `epoll_wait`
/// and `poll` share: `None` = block forever (-1), zero = return
/// immediately, otherwise round *up* so a 100 µs timeout does not
/// busy-spin as 0 ms.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) if t.is_zero() => 0,
        Some(t) => {
            let ms = t.as_millis();
            let ms = if Duration::from_millis(ms as u64) < t { ms + 1 } else { ms };
            ms.min(i32::MAX as u128) as i32
        }
    }
}

/// Binds a TCP listener on `addr` with the deepest accept backlog the host
/// allows (`SOMAXCONN`, clamped by the kernel). `TcpListener::bind` alone
/// listens at 128, so a burst of more connects than that against a busy
/// event loop stalls the overflow for a SYN retransmit (about a second).
pub fn listen(addr: impl std::net::ToSocketAddrs) -> io::Result<std::net::TcpListener> {
    let listener = std::net::TcpListener::bind(addr)?;
    sys::deepen_backlog(&listener)?;
    Ok(listener)
}

/// Accepts on a nonblocking listener mapped through the poller: `Ok(None)`
/// when the accept queue is drained (`WouldBlock`), so the event loop can
/// accept in a batch until empty without a second syscall wrapper.
pub fn accept_nonblocking(
    listener: &std::net::TcpListener,
) -> io::Result<Option<(std::net::TcpStream, std::net::SocketAddr)>> {
    match listener.accept() {
        Ok(pair) => Ok(Some(pair)),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_and_wake_pipe_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Poller>();
        assert_send_sync::<WakePipe>();
        assert_send_sync::<Event>();
    }

    #[test]
    fn timeout_rounds_up_not_down() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
        assert_eq!(timeout_ms(Some(Duration::from_micros(100))), 1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(20))), 20);
        assert_eq!(timeout_ms(Some(Duration::from_secs(1_000_000_000))), i32::MAX);
    }

    #[test]
    fn socket_readiness_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.add(listener.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Quiet listener: a short wait reports nothing.
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "{events:?}");

        let mut client = TcpStream::connect(addr).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "{events:?}");

        let (mut accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        poller.add(accepted.as_raw_fd(), 8, Interest::READ).unwrap();
        client.write_all(b"ping").unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 8 && e.readable), "{events:?}");
        let mut buf = [0u8; 8];
        assert_eq!(accepted.read(&mut buf).unwrap(), 4);

        // Write interest on an empty socket buffer reports immediately.
        poller.modify(accepted.as_raw_fd(), 8, Interest::BOTH).unwrap();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 8 && e.writable), "{events:?}");

        // Parked: readable data no longer wakes the poller.
        poller.modify(accepted.as_raw_fd(), 8, Interest::NONE).unwrap();
        client.write_all(b"more").unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(20))).unwrap();
        assert!(!events.iter().any(|e| e.token == 8 && e.readable), "{events:?}");

        poller.delete(accepted.as_raw_fd()).unwrap();
        poller.delete(listener.as_raw_fd()).unwrap();
    }

    #[test]
    fn peer_close_reports_readable_or_hangup() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.add(accepted.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && (e.readable || e.hangup)), "{events:?}");
    }

    #[test]
    fn wake_pipe_wakes_a_blocked_wait_from_another_thread() {
        let poller = Poller::new().unwrap();
        let pipe = std::sync::Arc::new(WakePipe::new().unwrap());
        poller.add(pipe.read_fd(), 0, Interest::READ).unwrap();

        let remote = std::sync::Arc::clone(&pipe);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable), "{events:?}");
        pipe.drain();

        // Drained: the pipe is quiet again.
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.is_empty(), "{events:?}");
        waker.join().unwrap();

        // Waking many times coalesces into (at least) one readiness
        // report and never blocks the waker, even past the pipe's
        // buffer capacity.
        for _ in 0..100_000 {
            pipe.wake();
        }
        poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable), "{events:?}");
        pipe.drain();
    }
}
