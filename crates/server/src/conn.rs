//! Per-connection state: sequence allocation and ordered reply routing.
//!
//! Batches complete in whatever order the workers finish them, and a
//! single batch answers slots from many connections at once — but every
//! connection must see its replies in its own submission order. Each
//! connection therefore owns a [`Router`]: a reorder buffer keyed by the
//! connection-local sequence number. Workers [`route`](ConnShared::route)
//! replies as they finish; the router *releases* them strictly in
//! sequence order, and the consumer (the event loop's output pump, or an
//! in-process [`Client`](crate::Client) calling `recv`) pops from the
//! released queue. A reply for seq 3 is held until 0, 1, and 2 have been
//! released, so cross-batch completion races can never reorder — or
//! cross-wire — a connection's reply stream.

use crate::metrics::{ns_between, ServerObs};
use parspeed_engine::Response;
use parspeed_obs::{ResilienceCounters, Stage};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One reply on its way back to a connection: typed for in-process
/// clients, a pre-rendered JSONL line for TCP connections.
///
/// Public (with [`ConnShared`]) so sharded frontends — the
/// `parspeed-router` scatter/gather tier — can feed each backend reply
/// through the exact reorder machinery a local server uses: the shard's
/// completion callback ([`Client::submit_then`](crate::Client::submit_then))
/// routes it here from the worker that produced it.
#[derive(Debug)]
pub enum Delivery {
    /// A typed response (in-process clients).
    Typed(Response),
    /// A rendered JSONL response line, newline excluded (TCP).
    Line(String),
}

#[derive(Debug, Default)]
struct Router {
    /// Sequence numbers handed out so far (next seq to allocate).
    allocated: u64,
    /// The next sequence number eligible for release.
    next_emit: u64,
    /// Out-of-order replies waiting for their predecessors, each
    /// stamped with when the worker produced it (`route` stage start).
    pending: BTreeMap<u64, (Delivery, Instant)>,
    /// In-order replies ready for the consumer, oldest first.
    released: VecDeque<(u64, Delivery)>,
    /// No further sequence numbers will be allocated (reader hit EOF or
    /// the server is tearing the connection down).
    eof: bool,
}

/// The state one connection shares between its submitter, the batcher
/// workers, and its reply consumer.
///
/// Public so other frontends (the consistent-hash router) reuse the
/// same seq-keyed reorder buffer instead of reinventing ordered reply
/// delivery: allocate with [`alloc_seq`](ConnShared::alloc_seq), route
/// replies as they arrive — from any thread, in any order; the router
/// routes from its shards' batcher workers — and consume them strictly
/// in sequence with [`next_released`](ConnShared::next_released).
#[derive(Debug)]
pub struct ConnShared {
    /// Frontend-assigned connection id (the [`SlotAddr::client`]
    /// half of every tag this connection submits).
    ///
    /// [`SlotAddr::client`]: parspeed_engine::SlotAddr
    pub id: u64,
    /// Where `route`-stage latency (reply produced → released in order)
    /// is recorded; `None` on bare test connections.
    obs: Option<Arc<ServerObs>>,
    /// Where a duplicate-seq route is counted (`reorder_drops`); `None`
    /// on bare test connections.
    resilience: Option<Arc<ResilienceCounters>>,
    /// Called (outside the state lock) whenever `route` releases at
    /// least one reply — the event-loop frontend's "this connection has
    /// output" signal. In-process clients leave it unset and block on
    /// the condvar instead.
    waker: Mutex<Option<Waker>>,
    state: Mutex<Router>,
    cv: Condvar,
}

/// The wake callback, newtyped so `ConnShared` can keep deriving
/// `Debug` around a closure.
struct Waker(Arc<dyn Fn() + Send + Sync>);

impl fmt::Debug for Waker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Waker")
    }
}

impl ConnShared {
    /// A bare connection (no observability attribution).
    pub fn new(id: u64) -> Self {
        ConnShared {
            id,
            obs: None,
            resilience: None,
            waker: Mutex::new(None),
            state: Mutex::new(Router::default()),
            cv: Condvar::new(),
        }
    }

    /// A connection wired to the server's observability state.
    pub fn with_obs(id: u64, obs: Arc<ServerObs>) -> Self {
        ConnShared { obs: Some(obs), ..Self::new(id) }
    }

    /// Attributes duplicate-route drops to `counters.reorder_drops`
    /// (builder-style, used by both serving frontends).
    pub fn with_resilience(mut self, counters: Arc<ResilienceCounters>) -> Self {
        self.resilience = Some(counters);
        self
    }

    /// Installs the wake callback [`route`](Self::route) invokes after
    /// releasing replies. The event-loop frontend sets it right after
    /// registering the connection — before any request is submitted, so
    /// no release can slip by unseen.
    pub fn set_waker(&self, wake: Arc<dyn Fn() + Send + Sync>) {
        *self.waker.lock().unwrap() = Some(Waker(wake));
    }

    /// Hands out the next connection-local sequence number.
    pub fn alloc_seq(&self) -> u64 {
        let mut r = self.state.lock().unwrap();
        let seq = r.allocated;
        r.allocated += 1;
        seq
    }

    /// Delivers the reply for `seq`, releasing it (and any successors it
    /// unblocks) once every earlier sequence number has been released.
    ///
    /// Routing the same sequence number twice is a frontend bug (one
    /// reply per slot is the layer's core guarantee). The **first**
    /// answer wins: a duplicate is dropped — never silently overwriting
    /// the original — and counted in the resilience `reorder_drops`
    /// field so the `metrics` op surfaces the bug machine-readably.
    pub fn route(&self, seq: u64, delivery: Delivery) {
        let produced = Instant::now();
        let mut r = self.state.lock().unwrap();
        if seq < r.next_emit || r.pending.contains_key(&seq) {
            drop(r);
            if let Some(resilience) = &self.resilience {
                ResilienceCounters::bump(&resilience.reorder_drops);
            }
            return;
        }
        r.pending.insert(seq, (delivery, produced));
        let mut released_any = false;
        loop {
            let emit = r.next_emit;
            let Some((d, produced)) = r.pending.remove(&emit) else { break };
            // `route` = how long the reorder buffer held this reply
            // back waiting for its predecessors (~0 when in order).
            if let Some(obs) = &self.obs {
                obs.record(Stage::Route, ns_between(produced, Instant::now()));
            }
            r.released.push_back((emit, d));
            r.next_emit += 1;
            released_any = true;
        }
        drop(r);
        self.cv.notify_all();
        if released_any {
            let wake = self.waker.lock().unwrap().as_ref().map(|w| Arc::clone(&w.0));
            if let Some(wake) = wake {
                wake();
            }
        }
    }

    /// Whether nothing is outstanding: no released reply waiting and
    /// every allocated sequence number already consumed. Used by the
    /// in-process client to turn a would-be-forever wait into a panic.
    pub fn idle(&self) -> bool {
        let r = self.state.lock().unwrap();
        r.released.is_empty() && r.next_emit == r.allocated
    }

    /// Marks the connection as done allocating (reader EOF / teardown).
    pub fn mark_eof(&self) {
        self.state.lock().unwrap().eof = true;
        self.cv.notify_all();
    }

    /// Pops the next in-order reply without blocking — `None` when
    /// nothing is released right now. The event-loop frontend's
    /// consumer: it learns about releases from the waker, never by
    /// parking a thread here.
    pub fn try_released(&self) -> Option<(u64, Delivery)> {
        self.state.lock().unwrap().released.pop_front()
    }

    /// Pops the next in-order reply, blocking until one is released.
    /// Returns `None` once the connection hit EOF and every allocated
    /// sequence number has been released and consumed — a blocking
    /// consumer's signal that the stream is fully flushed.
    pub fn next_released(&self) -> Option<(u64, Delivery)> {
        let mut r = self.state.lock().unwrap();
        loop {
            if let Some(out) = r.released.pop_front() {
                return Some(out);
            }
            if r.eof && r.next_emit == r.allocated {
                return None;
            }
            r = self.cv.wait(r).unwrap();
        }
    }

    /// [`next_released`](Self::next_released) with a deadline; `None`
    /// means flushed-and-done *or* timed out.
    pub fn next_released_timeout(&self, timeout: Duration) -> Option<(u64, Delivery)> {
        let deadline = Instant::now() + timeout;
        let mut r = self.state.lock().unwrap();
        loop {
            if let Some(out) = r.released.pop_front() {
                return Some(out);
            }
            if r.eof && r.next_emit == r.allocated {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            (r, _) = self.cv.wait_timeout(r, deadline - now).unwrap();
        }
    }

    /// An in-process client's `recv`: the next typed reply in
    /// submission order, blocking until it is released. Panics if
    /// nothing is outstanding (there would be nothing to wait for).
    pub fn recv_typed(&self) -> (u64, Response) {
        assert!(!self.idle(), "recv with no outstanding submission");
        match self.next_released() {
            Some((seq, Delivery::Typed(response))) => (seq, response),
            Some((_, Delivery::Line(_))) => unreachable!("rendered delivery on a typed client"),
            None => unreachable!("in-process connections never reach EOF"),
        }
    }

    /// [`recv_typed`](Self::recv_typed) with a deadline; `None` on
    /// timeout.
    pub fn recv_typed_timeout(&self, timeout: Duration) -> Option<(u64, Response)> {
        match self.next_released_timeout(timeout)? {
            (seq, Delivery::Typed(response)) => Some((seq, response)),
            (_, Delivery::Line(_)) => unreachable!("rendered delivery on a typed client"),
        }
    }

    /// An in-process client's `call`: waits for the reply to the
    /// just-submitted `seq`, which must be the next one released.
    pub fn await_typed(&self, seq: u64) -> Response {
        let (got, response) = self.recv_typed();
        assert_eq!(got, seq, "per-connection ordering violated");
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parspeed_engine::ParspeedError;

    fn typed(marker: &str) -> Delivery {
        Delivery::Typed(Response::Invalid(ParspeedError::invalid(marker)))
    }

    fn marker_of(d: &Delivery) -> String {
        match d {
            Delivery::Typed(Response::Invalid(e)) => e.to_string(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_order_routes_release_in_sequence_order() {
        let conn = ConnShared::new(0);
        for _ in 0..3 {
            conn.alloc_seq();
        }
        conn.route(2, typed("c"));
        conn.route(0, typed("a"));
        // seq 1 still missing: only seq 0 may be released.
        let (seq, d) = conn.next_released_timeout(Duration::from_millis(10)).unwrap();
        assert_eq!((seq, marker_of(&d).as_str()), (0, "a"));
        assert!(conn.next_released_timeout(Duration::from_millis(10)).is_none());
        conn.route(1, typed("b"));
        let (seq, d) = conn.next_released().unwrap();
        assert_eq!((seq, marker_of(&d).as_str()), (1, "b"));
        let (seq, d) = conn.next_released().unwrap();
        assert_eq!((seq, marker_of(&d).as_str()), (2, "c"));
    }

    #[test]
    fn eof_with_everything_flushed_ends_the_stream() {
        let conn = ConnShared::new(0);
        let seq = conn.alloc_seq();
        conn.route(seq, typed("only"));
        conn.mark_eof();
        assert!(conn.next_released().is_some());
        assert!(conn.next_released().is_none());
    }

    #[test]
    fn duplicate_route_keeps_the_first_reply_and_counts_the_drop() {
        let counters = Arc::new(ResilienceCounters::new());
        let conn = ConnShared::new(0).with_resilience(Arc::clone(&counters));
        for _ in 0..2 {
            conn.alloc_seq();
        }
        conn.route(0, typed("first"));
        // A double-routed reply (released or still pending) is dropped,
        // never overwriting the original, and the drop is counted.
        conn.route(0, typed("dup-of-released"));
        conn.route(1, typed("second"));
        conn.route(1, typed("dup-of-released-2"));
        let (_, d) = conn.next_released().unwrap();
        assert_eq!(marker_of(&d), "first");
        let (_, d) = conn.next_released().unwrap();
        assert_eq!(marker_of(&d), "second");
        assert_eq!(counters.snapshot().reorder_drops, 2);
        assert!(conn.idle(), "duplicates must not occupy reply slots");
    }

    #[test]
    fn duplicate_route_of_a_pending_reply_is_dropped_too() {
        let counters = Arc::new(ResilienceCounters::new());
        let conn = ConnShared::new(0).with_resilience(Arc::clone(&counters));
        for _ in 0..2 {
            conn.alloc_seq();
        }
        // seq 1 parks in the reorder buffer (seq 0 still missing); a
        // second route for it must keep the parked original.
        conn.route(1, typed("pending-original"));
        conn.route(1, typed("pending-dup"));
        assert_eq!(counters.snapshot().reorder_drops, 1);
        conn.route(0, typed("a"));
        let (_, d) = conn.next_released().unwrap();
        assert_eq!(marker_of(&d), "a");
        let (_, d) = conn.next_released().unwrap();
        assert_eq!(marker_of(&d), "pending-original");
    }

    #[test]
    fn waker_fires_on_release_and_try_released_never_blocks() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let conn = Arc::new(ConnShared::new(0));
        let wakes = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&wakes);
        conn.set_waker(Arc::new(move || {
            counted.fetch_add(1, Ordering::SeqCst);
        }));
        for _ in 0..2 {
            conn.alloc_seq();
        }
        assert!(conn.try_released().is_none());
        // Out-of-order route releases nothing — and must not wake.
        conn.route(1, typed("b"));
        assert_eq!(wakes.load(Ordering::SeqCst), 0);
        assert!(conn.try_released().is_none());
        // The gap fill releases both and wakes once.
        conn.route(0, typed("a"));
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        assert_eq!(marker_of(&conn.try_released().unwrap().1), "a");
        assert_eq!(marker_of(&conn.try_released().unwrap().1), "b");
        assert!(conn.try_released().is_none());
    }

    #[test]
    fn eof_still_waits_for_outstanding_replies() {
        let conn = ConnShared::new(0);
        conn.alloc_seq();
        conn.mark_eof();
        // Allocated but unrouted: the stream is not flushed yet.
        assert!(conn.next_released_timeout(Duration::from_millis(10)).is_none());
        conn.route(0, typed("late"));
        assert!(conn.next_released().is_some());
        assert!(conn.next_released().is_none());
    }
}
