//! The readiness-driven TCP frontend: one thread, many connections.
//!
//! Every serving tier's TCP traffic goes through this loop. A
//! thread-per-connection design would pay two OS threads per client — a
//! fixed per-client overhead that caps how many clients a shard can
//! front. Instead a single event-loop thread is multiplexed over every
//! connection via [`parspeed_netio::Poller`] (epoll on Linux):
//! nonblocking accept, reads into a **reusable per-connection buffer**
//! that lines are sliced out of without allocating, and writes through
//! a **reusable per-connection output buffer** with real backpressure.
//!
//! Backpressure is two watermarks on the output buffer, integrated with
//! the batcher's overload semantics rather than bolted beside them:
//!
//! * over the **shed** watermark ([`EventLoopConfig::shed_watermark`]),
//!   newly parsed engine-bound requests answer `overloaded` in their
//!   own slot without entering the batcher — the client is not
//!   consuming replies, so admitting more work would only grow the
//!   buffer (serving-only ops still answer: a health probe must work
//!   *especially* under overload);
//! * over the **stop** watermark ([`EventLoopConfig::stop_watermark`]),
//!   the connection stops being *read* entirely (its read interest is
//!   dropped) until the buffer drains back below the shed watermark —
//!   the slow client's bytes accumulate in its own socket, and the
//!   batcher, the loop, and every other connection proceed untouched.
//!
//! A connection whose write buffer is full therefore **never wedges the
//! batcher**: replies the batcher routes land in the connection's
//! reorder buffer ([`ConnShared`]), the loop moves them to the output
//! buffer as space allows, and everything else runs at full speed.
//!
//! Batcher workers finish replies on their own threads; they signal the
//! loop through the [`ConnShared`] waker — a self-pipe
//! ([`parspeed_netio::WakePipe`]) registered in the same poller — so
//! the loop never polls connections for output and never misses any.
//!
//! The loop is generic over a [`WireHandler`] so the sharded router
//! frontend reuses the exact same accept/read/backpressure machinery;
//! every line goes through the one dispatch path,
//! [`process_line`](crate::wire::process_line), with the handler
//! supplying the tier's serving-op table and admission step.

use crate::conn::{ConnShared, Delivery};
use crate::wire::{answer_oversize, process_line, WireHandler};
use parspeed_netio::{accept_nonblocking, Event, Interest, Poller, WakePipe};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Event-loop tuning. The defaults suit production serving; tests
/// shrink the watermarks to exercise backpressure deterministically.
#[derive(Debug, Clone, Copy)]
pub struct EventLoopConfig {
    /// Poll timeout — how often the loop re-checks the drain flag when
    /// fully idle (busy loops notice immediately).
    pub tick: Duration,
    /// Output-buffer bytes beyond which new engine-bound requests are
    /// shed as `overloaded` instead of admitted.
    pub shed_watermark: usize,
    /// Output-buffer bytes beyond which the connection stops being
    /// read (resumes below `shed_watermark` — hysteresis, no flapping).
    pub stop_watermark: usize,
    /// Longest accepted request line; anything longer answers a parse
    /// error and the excess is discarded up to the next newline.
    pub max_line: usize,
    /// How long a drain waits for stalled clients to consume their
    /// buffered replies before closing them anyway.
    pub drain_grace: Duration,
}

impl Default for EventLoopConfig {
    fn default() -> Self {
        EventLoopConfig {
            tick: Duration::from_millis(10),
            shed_watermark: 256 * 1024,
            stop_watermark: 1024 * 1024,
            max_line: 1024 * 1024,
            drain_grace: Duration::from_secs(5),
        }
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_CONN_BASE: u64 = 2;

/// How many bytes one readable event may pull from a single connection
/// before yielding to the others (level-triggered polling re-reports
/// the remainder, so nothing is lost — this is fairness, not a limit).
const READ_QUANTUM: usize = 64 * 1024;

/// Cross-thread wake state: batcher workers push the token of a
/// connection with newly released replies and poke the pipe; the loop
/// drains the pipe and takes the token list.
struct WakeState {
    pipe: WakePipe,
    pending: Mutex<Vec<u64>>,
}

impl WakeState {
    fn notify(&self, token: u64) {
        let mut pending = self.pending.lock().unwrap();
        let first = pending.is_empty();
        if !pending.contains(&token) {
            pending.push(token);
        }
        drop(pending);
        // Only the transition empty→non-empty needs a pipe byte: the
        // list is swapped under the same lock, so a push that found it
        // non-empty is always collected by the swap that will follow
        // the already-written byte.
        if first {
            self.pipe.wake();
        }
    }

    fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.pending.lock().unwrap())
    }
}

/// One live connection's loop-owned state.
struct LoopConn {
    stream: TcpStream,
    conn: Arc<ConnShared>,
    /// Unparsed input tail (reused across reads; no per-line String).
    rbuf: Vec<u8>,
    /// Rendered replies not yet written to the socket; `wpos` marks the
    /// already-written prefix (compacted when fully flushed).
    wbuf: Vec<u8>,
    wpos: usize,
    line_no: usize,
    v1_lines: u64,
    /// The read half is done (peer EOF, error, or drain) — only
    /// flushing remains.
    eof: bool,
    /// Reading is suspended because `wbuf` crossed the stop watermark.
    paused: bool,
    /// Discarding an oversized line up to its terminating newline.
    discarding: bool,
    /// The interest currently registered with the poller.
    interest: Interest,
}

impl LoopConn {
    fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// Binds the loop's poller and waker and spawns the loop thread. The
/// listener must already be bound; it is switched to nonblocking here.
pub fn spawn_event_loop(
    listener: TcpListener,
    handler: Arc<dyn WireHandler>,
    cfg: EventLoopConfig,
    thread_name: String,
) -> io::Result<JoinHandle<()>> {
    assert!(cfg.shed_watermark <= cfg.stop_watermark, "shed watermark must not exceed stop");
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let wake = Arc::new(WakeState { pipe: WakePipe::new()?, pending: Mutex::new(Vec::new()) });
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.add(wake.pipe.read_fd(), TOKEN_WAKE, Interest::READ)?;
    let thread = std::thread::Builder::new().name(thread_name).spawn(move || {
        EventLoop { listener, handler, cfg, poller, wake, conns: Vec::new() }.run()
    })?;
    Ok(thread)
}

struct EventLoop {
    listener: TcpListener,
    handler: Arc<dyn WireHandler>,
    cfg: EventLoopConfig,
    poller: Poller,
    wake: Arc<WakeState>,
    /// Connection slab indexed by `token - TOKEN_CONN_BASE`. Freed
    /// slots are only reused on the *next* iteration, so an event
    /// queued for a closed connection can never touch its successor.
    conns: Vec<Option<LoopConn>>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut freed_this_round: Vec<usize> = Vec::new();
        let mut drain_started: Option<Instant> = None;

        loop {
            let _ = self.poller.wait(&mut events, Some(self.cfg.tick));
            let accepting = drain_started.is_none();
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER if accepting => self.accept_burst(&mut free),
                    TOKEN_LISTENER => {}
                    TOKEN_WAKE => {
                        self.wake.pipe.drain();
                        for token in self.wake.take() {
                            self.pump(token, &mut freed_this_round);
                        }
                    }
                    token => {
                        let slot = (token - TOKEN_CONN_BASE) as usize;
                        if self.conns.get(slot).map(Option::is_some) != Some(true) {
                            continue; // closed earlier this round
                        }
                        if ev.readable {
                            self.read_ready(token, &mut freed_this_round);
                        }
                        if ev.writable {
                            self.pump(token, &mut freed_this_round);
                        }
                        if ev.hangup {
                            self.hangup(slot, &mut freed_this_round);
                        }
                    }
                }
            }
            free.append(&mut freed_this_round);

            if self.handler.draining() {
                if drain_started.is_none() {
                    drain_started = Some(Instant::now());
                    self.begin_drain();
                }
                // Flush every tick (wakes also flush): done when every
                // connection is closed, or the grace for stalled
                // clients runs out.
                for slot in 0..self.conns.len() {
                    self.pump(slot as u64 + TOKEN_CONN_BASE, &mut freed_this_round);
                }
                free.append(&mut freed_this_round);
                let live = self.conns.iter().filter(|c| c.is_some()).count();
                let expired = drain_started.is_some_and(|t| t.elapsed() >= self.cfg.drain_grace);
                if live == 0 || expired {
                    return; // sockets and poller close on drop
                }
            }
        }
    }

    /// Accepts until the queue is empty, registering each connection.
    fn accept_burst(&mut self, free: &mut Vec<usize>) {
        loop {
            let stream = match accept_nonblocking(&self.listener) {
                Ok(Some((stream, _peer))) => stream,
                Ok(None) => return,
                Err(e) => {
                    // Out of descriptors or a transient accept error:
                    // note it and let the next readiness report retry.
                    eprintln!("note: dropping connection: {e}");
                    return;
                }
            };
            if let Err(e) = self.register(stream, free) {
                eprintln!("note: dropping connection: {e}");
            }
        }
    }

    fn register(&mut self, stream: TcpStream, free: &mut Vec<usize>) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let slot = match free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let token = slot as u64 + TOKEN_CONN_BASE;
        let conn = self.handler.connect();
        let wake = Arc::clone(&self.wake);
        // Installed before the first byte is read, so no release can
        // ever go unsignalled.
        conn.set_waker(Arc::new(move || wake.notify(token)));
        if let Err(e) = self.poller.add(stream.as_raw_fd(), token, Interest::READ) {
            // Slot stays free for the next accept; the reorder buffer
            // is dropped with the socket.
            free.push(slot);
            return Err(e);
        }
        self.conns[slot] = Some(LoopConn {
            stream,
            conn,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            line_no: 0,
            v1_lines: 0,
            eof: false,
            paused: false,
            discarding: false,
            interest: Interest::READ,
        });
        Ok(())
    }

    /// Reads a quantum from a readable connection, slices complete
    /// lines out of the reusable buffer, and dispatches each through
    /// the handler — then pumps any output that produced.
    fn read_ready(&mut self, token: u64, freed: &mut Vec<usize>) {
        let slot = (token - TOKEN_CONN_BASE) as usize;
        let Some(c) = self.conns[slot].as_mut() else { return };
        if c.eof || c.paused {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        let mut taken = 0usize;
        let mut saw_eof = false;
        while taken < READ_QUANTUM {
            match c.stream.read(&mut chunk) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    c.rbuf.extend_from_slice(&chunk[..n]);
                    taken += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    saw_eof = true;
                    break;
                }
            }
        }

        self.parse_lines(slot, saw_eof);

        if saw_eof {
            self.end_reads(slot);
        }
        self.pump(token, freed);
    }

    /// Slices and dispatches every complete line in the read buffer
    /// (plus, `at_eof`, the unterminated final line, as
    /// `BufRead::lines` would yield it). The shed verdict is taken
    /// per line from the output buffer's current backlog.
    fn parse_lines(&mut self, slot: usize, at_eof: bool) {
        let handler = &*self.handler;
        let shed_limit = self.cfg.shed_watermark;
        let max_line = self.cfg.max_line;
        let c = self.conns[slot].as_mut().expect("slot live");
        let mut start = 0usize;
        loop {
            if c.discarding {
                match c.rbuf[start..].iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        start += pos + 1;
                        c.discarding = false;
                        continue;
                    }
                    None => {
                        start = c.rbuf.len();
                        break;
                    }
                }
            }
            let end = match c.rbuf[start..].iter().position(|&b| b == b'\n') {
                Some(pos) => start + pos,
                // EOF flushes the unterminated tail as a final line.
                None if at_eof && start < c.rbuf.len() => c.rbuf.len(),
                None => {
                    if c.rbuf.len() - start > max_line {
                        // Answer the oversized line's slot with a parse
                        // error naming the limit, then discard to the
                        // next newline.
                        c.line_no += 1;
                        answer_oversize(&c.conn, c.line_no, max_line);
                        c.rbuf.clear();
                        c.discarding = true;
                        start = 0;
                    }
                    break;
                }
            };
            // Blank lines consume a line number but answer nothing.
            c.line_no += 1;
            if !c.rbuf[start..end].iter().all(|b| b.is_ascii_whitespace()) {
                let backlog = c.pending_out();
                let shed_msg = (backlog >= shed_limit).then(|| shed_message(backlog));
                // Slice the line out of the reusable buffer: zero-copy
                // for valid UTF-8 (the lossy conversion only allocates
                // on invalid bytes, which then answer a parse error).
                let text = String::from_utf8_lossy(&c.rbuf[start..end]);
                let shed = shed_msg.as_deref();
                process_line(handler, &c.conn, text.trim(), c.line_no, &mut c.v1_lines, shed);
            }
            if end == c.rbuf.len() {
                start = end; // unterminated final line at EOF
                break;
            }
            start = end + 1;
        }
        c.rbuf.drain(..start);
    }

    /// Moves released replies into the output buffer, writes what the
    /// socket accepts, updates backpressure state and poller interest,
    /// and finalizes the connection once it is flushed-and-done.
    fn pump(&mut self, token: u64, freed: &mut Vec<usize>) {
        let slot = (token - TOKEN_CONN_BASE) as usize;
        let Some(c) = self.conns[slot].as_mut() else { return };

        let mut dead = false;
        loop {
            // Pull released replies while buffer space remains; the
            // rest stay in the reorder buffer until the client reads.
            while c.pending_out() < self.cfg.stop_watermark {
                match c.conn.try_released() {
                    Some((_seq, Delivery::Line(line))) => {
                        c.wbuf.extend_from_slice(line.as_bytes());
                        c.wbuf.push(b'\n');
                    }
                    Some((_seq, Delivery::Typed(_))) => {
                        unreachable!("typed delivery on a TCP connection")
                    }
                    None => break,
                }
            }
            // Write what the socket will take.
            let mut progressed = false;
            while c.wpos < c.wbuf.len() {
                match c.stream.write(&c.wbuf[c.wpos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        c.wpos += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if c.wpos == c.wbuf.len() {
                c.wbuf.clear();
                c.wpos = 0;
            }
            // A fully drained buffer may admit more released replies;
            // loop until neither side can progress.
            if dead || !progressed || c.pending_out() > 0 {
                break;
            }
        }

        if dead {
            // The peer stopped reading: tear the whole connection down.
            self.end_reads(slot);
            self.close(slot, freed);
            return;
        }

        let c = self.conns[slot].as_mut().expect("slot live");
        // Backpressure hysteresis: pause reads over the stop watermark,
        // resume once drained below the shed watermark.
        if c.pending_out() >= self.cfg.stop_watermark {
            c.paused = true;
        } else if c.paused && c.pending_out() < self.cfg.shed_watermark {
            c.paused = false;
        }
        let want = Interest { readable: !c.eof && !c.paused, writable: c.pending_out() > 0 };
        if want != c.interest && self.poller.modify(c.stream.as_raw_fd(), token, want).is_ok() {
            c.interest = want;
        }

        // Flushed-and-done: EOF seen, every admitted request answered
        // and written. Half-close so the client's read loop ends.
        if c.eof && c.pending_out() == 0 && c.conn.idle() {
            let _ = c.stream.shutdown(Shutdown::Write);
            self.close(slot, freed);
        }
    }

    /// Both directions are gone (`EPOLLHUP`/`EPOLLERR`): nothing left
    /// to flush to this peer — tear the connection down now.
    fn hangup(&mut self, slot: usize, freed: &mut Vec<usize>) {
        self.end_reads(slot);
        self.close(slot, freed);
    }

    /// Ends a live connection's read half, once: marks its reorder
    /// buffer EOF and lets the handler emit its per-connection notes.
    fn end_reads(&mut self, slot: usize) {
        if let Some(c) = self.conns[slot].as_mut().filter(|c| !c.eof) {
            c.eof = true;
            c.conn.mark_eof();
            self.handler.disconnect(&c.conn, c.v1_lines);
        }
    }

    fn close(&mut self, slot: usize, freed: &mut Vec<usize>) {
        if let Some(c) = self.conns[slot].take() {
            let _ = self.poller.delete(c.stream.as_raw_fd());
            // The socket closes on drop; replies still in flight from
            // the batcher route into the reorder buffer and are dropped
            // with it.
            freed.push(slot);
        }
    }

    /// Drain: stop reading everywhere (clients may keep sending — their
    /// bytes stay in their sockets), mark every reorder buffer EOF so
    /// in-flight batches can finish the streams, keep flushing.
    fn begin_drain(&mut self) {
        for slot in 0..self.conns.len() {
            self.end_reads(slot);
        }
    }
}

/// The in-slot refusal message for a request parsed while the
/// connection's output buffer is over the shed watermark.
fn shed_message(backlog: usize) -> String {
    format!(
        "connection write buffer full ({backlog} bytes of replies unread by the client): \
         request shed (not evaluated); read pending replies to resume"
    )
}
