//! The OS backends: epoll on Linux, poll(2) elsewhere, plus the
//! self-pipe waker both share. All `unsafe` in the workspace lives in
//! this file; everything exported is safe.
//!
//! The raw functions are declared by hand instead of through the `libc`
//! crate (crates.io is unreachable here). The standard library already
//! links the platform libc, so plain `extern "C"` declarations resolve
//! at link time. Constants are the kernel ABI values for the targets we
//! build: they are ABI, not configuration, and do not drift.

use crate::{timeout_ms, Event, Interest};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

use std::os::raw::{c_int, c_void};

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
}

/// Retries a syscall interrupted by a signal — the only errno that
/// means "nothing happened, call again".
fn retry_eintr<T: PartialOrd + From<i8>>(mut f: impl FnMut() -> T) -> io::Result<T> {
    loop {
        let r = f();
        if r >= T::from(0) {
            return Ok(r);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// The largest accept backlog to ask `listen(2)` for: the platform's
/// `SOMAXCONN`. Linux clamps any request to `net.core.somaxconn`.
#[cfg(target_os = "linux")]
const SOMAXCONN: c_int = 4096;
#[cfg(not(target_os = "linux"))]
const SOMAXCONN: c_int = 128;

/// Calls `listen(2)` again on an already-listening socket with a backlog
/// of [`SOMAXCONN`]. Repeating `listen` on a listening socket only resizes
/// its accept queue.
pub(crate) fn deepen_backlog(listener: &std::net::TcpListener) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    // SAFETY: the fd belongs to `listener`, which outlives the call;
    // listen(2) takes no pointers.
    if unsafe { listen(listener.as_raw_fd(), SOMAXCONN) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// A byte pipe whose write end any thread may poke to wake a
/// [`Poller::wait`] blocked on the read end — the classic self-pipe
/// trick. Both ends are nonblocking: [`wake`](WakePipe::wake) on a full
/// pipe is a no-op (the sleeper is already guaranteed to wake), and
/// [`drain`](WakePipe::drain) reads until empty.
#[derive(Debug)]
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    /// Opens the pipe with both ends nonblocking and close-on-exec.
    pub fn new() -> io::Result<WakePipe> {
        let (read_fd, write_fd) = pipe_pair()?;
        Ok(WakePipe { read_fd, write_fd })
    }

    /// The read end, for registering with a [`Poller`].
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Makes the read end readable. Never blocks: a full pipe already
    /// guarantees the next `wait` returns, so `EAGAIN` is success.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: write_fd is a pipe fd this struct owns until Drop;
        // the buffer is a live 1-byte stack slot.
        let _ = unsafe { write(self.write_fd, (&byte as *const u8).cast(), 1) };
    }

    /// Consumes every pending wake byte so the next `wait` blocks again.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: read_fd is owned by this struct; buf is a live
            // 64-byte stack buffer and the length passed matches.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr().cast(), buf.len()) };
            if n < buf.len() as isize {
                // Short read or EAGAIN: the pipe is empty (racy wakes
                // that land after this instant will report again).
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: the fds were created by pipe_pair and closed only here.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

// ---------------------------------------------------------------------------
// Linux: epoll + pipe2
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod imp {
    use super::*;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const O_NONBLOCK: c_int = 0o4000;
    const O_CLOEXEC: c_int = 0o2000000;

    // The kernel ABI struct. On x86 and x86_64 it is packed (a 12-byte
    // layout the kernel chose for 32/64-bit compatibility); other
    // architectures use natural alignment.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn pipe2(pipefd: *mut c_int, flags: c_int) -> c_int;
    }

    pub(super) fn pipe_pair() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: fds is a live 2-element array, exactly what pipe2
        // writes into on success.
        let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((fds[0], fds[1]))
    }

    fn interest_bits(interest: Interest) -> u32 {
        let mut events = EPOLLRDHUP;
        if interest.readable {
            events |= EPOLLIN;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        events
    }

    /// Readiness multiplexer: register descriptors with a `u64` token,
    /// block in [`wait`](Poller::wait) until any is ready.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Opens the epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd })
        }

        /// Starts watching `fd`, reporting readiness as `token`.
        /// The caller keeps ownership of `fd` and must [`delete`]
        /// (or close) it before the fd number is reused.
        ///
        /// [`delete`]: Poller::delete
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Changes what `fd` is watched for (and its token).
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Stops watching `fd`.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent { events: interest_bits(interest), data: token };
            // SAFETY: event is a live, correctly-laid-out EpollEvent;
            // the kernel only reads it (and ignores it for DEL).
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        /// Blocks until at least one descriptor is ready (or `timeout`
        /// passes — `None` blocks indefinitely), replacing `out` with
        /// the readiness reports. Returns the number of events.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            out.clear();
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let n = retry_eintr(|| {
                // SAFETY: buf is a live array of 256 EpollEvents and the
                // length passed matches; the kernel writes at most that
                // many entries.
                unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms(timeout))
                }
            })?;
            for ev in &buf[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let (bits, token) = (ev.events, ev.data);
                out.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(out.len())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd came from epoll_create1 and is closed once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Other Unixes: poll(2) over an interest table, pipe + fcntl
// ---------------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::*;
    use std::os::raw::c_uint;
    use std::sync::Mutex;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    // BSD-lineage value (macOS, the BSDs): this fallback never builds
    // for Linux, which has its own module above.
    const O_NONBLOCK: c_int = 0x0004;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_uint, timeout: c_int) -> c_int;
        fn pipe(pipefd: *mut c_int) -> c_int;
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    }

    pub(super) fn pipe_pair() -> io::Result<(RawFd, RawFd)> {
        let mut fds = [0 as c_int; 2];
        // SAFETY: fds is a live 2-element array.
        let rc = unsafe { pipe(fds.as_mut_ptr()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            // SAFETY: plain fcntl on fds we just created.
            let rc = unsafe {
                let flags = fcntl(fd, F_GETFL, 0);
                if flags < 0 {
                    flags
                } else {
                    fcntl(fd, F_SETFL, flags | O_NONBLOCK)
                }
            };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok((fds[0], fds[1]))
    }

    /// Readiness multiplexer (poll(2) backend): same API as the Linux
    /// epoll version, rebuilt interest table each wait.
    #[derive(Debug, Default)]
    pub struct Poller {
        table: Mutex<Vec<(RawFd, u64, Interest)>>,
    }

    impl Poller {
        /// Opens the poller (no OS resource needed for this backend).
        pub fn new() -> io::Result<Poller> {
            Ok(Poller::default())
        }

        /// Starts watching `fd`, reporting readiness as `token`.
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut table = self.table.lock().unwrap();
            if table.iter().any(|(f, _, _)| *f == fd) {
                return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd registered"));
            }
            table.push((fd, token, interest));
            Ok(())
        }

        /// Changes what `fd` is watched for (and its token).
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut table = self.table.lock().unwrap();
            match table.iter_mut().find(|(f, _, _)| *f == fd) {
                Some(entry) => {
                    *entry = (fd, token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        /// Stops watching `fd`.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            let mut table = self.table.lock().unwrap();
            let before = table.len();
            table.retain(|(f, _, _)| *f != fd);
            if table.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        /// Blocks until at least one descriptor is ready (or `timeout`
        /// passes), replacing `out` with the readiness reports.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            out.clear();
            let snapshot: Vec<(RawFd, u64, Interest)> = self.table.lock().unwrap().clone();
            let mut fds: Vec<PollFd> = snapshot
                .iter()
                .map(|(fd, _, interest)| PollFd {
                    fd: *fd,
                    events: if interest.readable { POLLIN } else { 0 }
                        | if interest.writable { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            retry_eintr(|| {
                // SAFETY: fds is a live Vec of PollFd and nfds matches
                // its length.
                unsafe { poll(fds.as_mut_ptr(), fds.len() as c_uint, timeout_ms(timeout)) }
            })?;
            for (slot, (_, token, _)) in fds.iter().zip(&snapshot) {
                let bits = slot.revents;
                if bits == 0 {
                    continue;
                }
                out.push(Event {
                    token: *token,
                    readable: bits & (POLLIN | POLLHUP) != 0,
                    writable: bits & POLLOUT != 0,
                    hangup: bits & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(out.len())
        }
    }
}

use imp::pipe_pair;
pub use imp::Poller;
