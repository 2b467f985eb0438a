//! `parspeed-server` — the concurrent serving layer: a multi-threaded
//! frontend over the engine's [`Service`] surface that accepts many
//! simultaneous clients and funnels their requests through a
//! **cross-client micro-batcher**.
//!
//! Everything below the service boundary already amortizes coordination
//! cost *within* one batch: the engine plans, dedups, caches, and
//! executes a batch's queries as one unit. But a serving workload does
//! not arrive as one batch — it arrives as thousands of small requests
//! from independent connections, and dispatching each alone pays the
//! whole per-batch overhead for a problem of size 1. That is the paper's
//! core tradeoff (per-iteration overhead vs problem size) at the serving
//! layer, and the fix is the same: **aggregate work before paying the
//! coordination cost**. The micro-batcher holds the first request of a
//! quiet period for a short window ([`ServerConfig::window`]) and
//! coalesces everything that arrives meanwhile — from *all* connections
//! — into one engine batch, so dedup and the sharded result cache
//! amortize across users, not just within a file.
//!
//! The layer guarantees, in order of importance:
//!
//! * **per-connection ordered replies** — each connection sees exactly
//!   one reply per request, in its own submission order, however batches
//!   complete (a reorder router holds early replies back);
//! * **no cross-client leakage** — every query is tagged with a
//!   [`SlotAddr`](parspeed_engine::SlotAddr) and the engine's
//!   slot-addressed batch entry point returns each reply under its tag;
//! * **overload is an answer, not a disconnect** — a bounded submission
//!   queue refuses excess requests with the documented `overloaded`
//!   error kind in the request's own reply slot;
//! * **graceful drain** — shutdown stops admission, flushes every
//!   accepted request's reply, then tears connections down.
//!
//! Frontends: raw TCP with wire-v2 JSONL framing ([`Server::listen`] —
//! the same schema as `parspeed batch`, streamed), and an in-process
//! [`Client`] handle ([`Server::client`]) that tests and embedders drive
//! with typed [`Query`]s. The CLI exposes the whole thing as
//! `parspeed serve`.
//!
//! ```
//! use parspeed_engine::{ArchKind, Engine, EvalValue, Request, Response};
//! use parspeed_server::{Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let server = Server::start(Arc::new(Engine::default()), ServerConfig::default());
//! let client = server.client();
//! let response = client.call(Request::optimize(ArchKind::SyncBus, 256).procs(64).query());
//! match response {
//!     Response::Single(Ok(EvalValue::Optimum { processors, .. })) => {
//!         assert_eq!(processors, 14); // the paper's §6.1 anchor
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod batcher;
mod conn;
mod eventloop;
mod metrics;
mod stats;
mod wire;

pub use conn::{ConnShared, Delivery};
pub use eventloop::{spawn_event_loop, EventLoopConfig};
pub use metrics::{resilience_to_json, MetricsSnapshot, ServerObs};
pub use stats::{health_to_json, ServerStats};
pub use wire::{WireHandler, WireRequest};

use batcher::{deliver_overload, Job, OnReply, Shared};
use parspeed_engine::{jsonl, ParspeedError, Query, Response, Service, WIRE_VERSION};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Micro-batching knobs. The defaults suit tests and light serving;
/// `parspeed serve` exposes every field as a flag.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// How long the first request of a quiet period waits for company
    /// before its batch fires (`--window-us`). Zero fires immediately
    /// with whatever is queued at pop time.
    pub window: Duration,
    /// Most requests coalesced into one engine batch (`--max-batch`);
    /// reaching it fires the batch before the window closes.
    pub max_batch: usize,
    /// Batcher worker threads (`--workers`). Each executes whole
    /// batches; more workers overlap independent windows.
    pub workers: usize,
    /// Bound on the submission queue (`--queue-depth`); requests
    /// arriving beyond it are answered with the `overloaded` error.
    pub queue_depth: usize,
    /// Record per-stage latency histograms (the `metrics` op). On by
    /// default — three relaxed atomic ops per sample, well under the
    /// bench-gated 5% overhead budget (`parspeed serve --no-observe`
    /// turns it off, which also disables tracing).
    pub observe: bool,
    /// Keep the last N request traces in a ring (`--trace N`, the
    /// `trace` op). 0 — the default — disables tracing entirely.
    pub trace: usize,
    /// The shard id this server answers `{"op":"health"}` probes with —
    /// `Some` when the server runs as one backend of a sharded router
    /// fleet, `None` (the default) for a standalone server, which
    /// reports `"shard":null`.
    pub shard: Option<usize>,
    /// Brownout (cache-only degradation) watermarks, `None` (the
    /// default) to disable. See [`BrownoutConfig`].
    pub brownout: Option<BrownoutConfig>,
    /// Event-loop tuning for the TCP frontend [`Server::listen`]
    /// attaches (buffer watermarks, poll tick, line limit).
    pub event_loop: EventLoopConfig,
}

/// Brownout watermarks: under queue pressure the server degrades to
/// cache-only service — requests whose results are warm in the engine's
/// result cache still answer, cold ones are shed as `overloaded` (and
/// counted in the `metrics` op's `resilience.shed`). Hysteresis keeps
/// the mode from flapping: brownout starts when the submission queue
/// reaches `enter` pending requests and ends when it falls back to
/// `exit` (`exit < enter`).
#[derive(Debug, Clone, Copy)]
pub struct BrownoutConfig {
    /// Queue depth at or above which brownout begins
    /// (`--brownout-enter`).
    pub enter: usize,
    /// Queue depth at or below which brownout ends
    /// (`--brownout-exit`).
    pub exit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            window: Duration::from_micros(200),
            max_batch: 512,
            workers: 2,
            queue_depth: 4096,
            observe: true,
            trace: 0,
            shard: None,
            brownout: None,
            event_loop: EventLoopConfig::default(),
        }
    }
}

/// The running server: batcher workers plus any frontends attached to
/// them. Dropping it without [`shutdown`](Server::shutdown) leaks the
/// worker threads for the rest of the process — call `shutdown`.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    event_loops: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts the batcher workers over `service` (usually
    /// `Arc<Engine>`) and returns the handle frontends attach to.
    pub fn start(service: Arc<dyn Service + Send + Sync>, config: ServerConfig) -> Server {
        assert!(config.workers >= 1, "server needs at least one worker");
        assert!(config.max_batch >= 1, "max_batch must be positive");
        assert!(config.queue_depth >= 1, "queue_depth must be positive");
        let shared = Arc::new(Shared::new(service, config));
        if config.observe {
            // The engine attributes plan/dedup/cache/exec time into the
            // same stage set the server uses for queue/window/route —
            // through the Service surface, so the engine never learns
            // the server exists.
            shared.service.install_recorder(shared.obs.clone());
        }
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("parspeed-batch-{i}"))
                    .spawn(move || shared.worker_loop())
                    .expect("spawn batcher worker")
            })
            .collect();
        Server { shared, workers, event_loops: Vec::new() }
    }

    /// Opens an in-process connection: a typed client whose requests go
    /// through the same admission control, micro-batcher, and ordered
    /// reply routing as TCP traffic.
    pub fn client(&self) -> Client {
        Client { conn: alloc_conn(&self.shared), shared: Arc::clone(&self.shared) }
    }

    /// Binds `addr` and starts accepting wire-v2 JSONL connections on a
    /// background event-loop thread. Returns the bound address (so `:0`
    /// works).
    pub fn listen(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = parspeed_netio::listen(addr)?;
        let local = listener.local_addr()?;
        let handler = Arc::new(ServerHandler { shared: Arc::clone(&self.shared) });
        let thread = eventloop::spawn_event_loop(
            listener,
            handler,
            self.shared.cfg.event_loop,
            "parspeed-eventloop".into(),
        )?;
        self.event_loops.push(thread);
        Ok(local)
    }

    /// A live telemetry snapshot.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// A live observability snapshot: the counters plus one
    /// latency-histogram summary per pipeline stage (the `metrics` op).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics()
    }

    /// The server's observability state. The handle stays valid after
    /// [`shutdown`](Server::shutdown) — grab it first to render final
    /// metrics or flush the trace ring after the drain.
    pub fn observability(&self) -> Arc<ServerObs> {
        Arc::clone(&self.shared.obs)
    }

    /// The server's resilience counters (retries, deadline misses,
    /// shed requests, caught panics — the `metrics` op's `resilience`
    /// section). Like [`observability`](Server::observability), the
    /// handle stays valid after shutdown.
    pub fn resilience(&self) -> Arc<parspeed_obs::ResilienceCounters> {
        Arc::clone(&self.shared.resilience)
    }

    /// Installs a deterministic [`FaultPlan`](parspeed_chaos::FaultPlan)
    /// (or, with `None`, removes it). While installed, every admitted
    /// request ticks the plan once, and due triggers fire against this
    /// server: `panic` panics a batcher worker mid-batch (the panic
    /// shield answers every slot and keeps the worker alive),
    /// `delay:S:MS` stalls the next batch by `MS` milliseconds. Ring
    ///-level actions (`kill`/`drop`/`dup`/`wedge`) have no meaning on a
    /// standalone server and are recorded as ignored. Zero cost when
    /// absent: one mutex-guarded `Option` check per batch.
    pub fn install_fault_plan(&self, plan: Option<Arc<parspeed_chaos::FaultPlan>>) {
        *self.shared.faults.lock().unwrap() = plan;
    }

    /// Graceful drain: stops admitting (late requests get the
    /// `overloaded` answer), flushes a reply for every accepted request,
    /// closes connections, joins every thread, and returns the final
    /// telemetry. In-process [`Client`]s stay usable for `recv`; their
    /// further submissions are refused with the overload answer.
    pub fn shutdown(self) -> ServerStats {
        self.shared.drain();
        for worker in self.workers {
            let _ = worker.join();
        }
        // Event loops notice the drain flag on their next tick, flush
        // every connection, and exit.
        for event_loop in self.event_loops {
            let _ = event_loop.join();
        }
        // The engine may outlive this server; leave it reporting into a
        // no-op sink rather than our now-final stage set.
        if self.shared.cfg.observe {
            self.shared.service.install_recorder(Arc::new(parspeed_obs::NoopRecorder));
        }
        self.shared.stats()
    }
}

/// Allocates a connection id (TCP and in-process clients share the
/// space) and counts the connection. The one place every connection is
/// built, so the id scheme and counter can never diverge.
fn alloc_conn(shared: &Shared) -> Arc<ConnShared> {
    let id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    shared.counters.add(&shared.counters.connections, 1);
    Arc::new(
        ConnShared::with_obs(id, Arc::clone(&shared.obs))
            .with_resilience(Arc::clone(&shared.resilience)),
    )
}

/// Glues the event loop to the batcher: the server's serving-op table
/// and its admission step (submit, or the overload answer when the
/// loop sheds).
struct ServerHandler {
    shared: Arc<Shared>,
}

impl WireHandler for ServerHandler {
    fn connect(&self) -> Arc<ConnShared> {
        alloc_conn(&self.shared)
    }

    fn serve_op(&self, op: &str) -> Option<Result<jsonl::Json, ParspeedError>> {
        let shared = &self.shared;
        Some(Ok(match op {
            "stats" => shared.stats().to_json(),
            "health" => shared.health(),
            "metrics" => shared.metrics().to_json(),
            "trace" => {
                metrics::trace_to_json(&shared.obs.trace_events(), shared.obs.trace_capacity())
            }
            _ => return None,
        }))
    }

    fn admit(&self, conn: &Arc<ConnShared>, request: WireRequest, shed: Option<&str>) {
        let shared = &self.shared;
        if request.version < WIRE_VERSION {
            shared.counters.add(&shared.counters.v1_lines, 1);
        }
        let job = Job {
            conn: Arc::clone(conn),
            seq: request.seq,
            query: request.query,
            version: request.version,
            line_no: request.line_no,
            render: true,
            submitted: request.submitted,
            deadline: request.deadline,
            on_reply: None,
        };
        match shed {
            Some(msg) => deliver_overload(job, msg.to_string(), &shared.counters, &shared.obs),
            None => shared.submit(job),
        }
    }

    /// Logs the once-per-connection wire-v1 deprecation note (the same
    /// one `parspeed batch` prints in file mode).
    fn disconnect(&self, conn: &ConnShared, v1_lines: u64) {
        if v1_lines > 0 {
            eprintln!(
                "note: connection {} sent {v1_lines} request line(s) using deprecated wire v1; \
                 add \"version\":2 (see crates/engine/src/README.md)",
                conn.id
            );
        }
    }

    fn draining(&self) -> bool {
        self.shared.is_draining()
    }
}

/// An in-process connection: typed queries in, typed responses out,
/// with the exact semantics of a TCP connection — admission control,
/// cross-client batching, and per-connection ordered replies.
pub struct Client {
    conn: Arc<ConnShared>,
    shared: Arc<Shared>,
}

impl Client {
    /// Submits one query, returning its connection-local sequence
    /// number. Never blocks on the batcher: a refused request (full
    /// queue, draining server) is answered with the `overloaded` error
    /// in its reply slot like any other reply.
    pub fn submit(&self, query: Query) -> u64 {
        self.submit_with_deadline(query, None)
    }

    /// [`submit`](Self::submit) with an absolute deadline: if the
    /// result is not produced by `deadline`, the slot answers with the
    /// `deadline_exceeded` error instead. The deadline is checked when
    /// the batch fires, so a reply can arrive slightly past it (the
    /// batch that beat the deadline still delivers) but an expired
    /// request never occupies engine time.
    pub fn submit_with_deadline(&self, query: Query, deadline: Option<Instant>) -> u64 {
        self.enqueue(query, deadline, None)
    }

    /// [`submit_with_deadline`](Self::submit_with_deadline) with a
    /// completion callback: `on_reply` receives the typed reply exactly
    /// once — the result, or the in-slot `overloaded`,
    /// `deadline_exceeded`, or `internal` answer — and the reply never
    /// enters this client's ordered stream.
    ///
    /// The callback runs on the batcher worker that produced the reply,
    /// or synchronously inside this call when admission refuses the
    /// request (full queue, draining server, brownout), so the caller
    /// must not hold a lock the callback takes. It runs outside the
    /// worker's panic shield and should not panic. Its slot still takes
    /// a sequence number from this client, so replies to plain
    /// [`submit`](Self::submit)s made after it would wait behind it
    /// forever: a client serves one style or the other.
    pub fn submit_then(
        &self,
        query: Query,
        deadline: Option<Instant>,
        on_reply: impl FnOnce(Response) + Send + 'static,
    ) {
        self.enqueue(query, deadline, Some(Box::new(on_reply)));
    }

    fn enqueue(&self, query: Query, deadline: Option<Instant>, on_reply: Option<OnReply>) -> u64 {
        let seq = self.conn.alloc_seq();
        self.shared.submit(Job {
            conn: Arc::clone(&self.conn),
            seq,
            query,
            version: WIRE_VERSION,
            line_no: seq as usize + 1,
            render: false,
            submitted: Instant::now(),
            deadline,
            on_reply,
        });
        seq
    }

    /// Receives the next reply in submission order, blocking until it
    /// is released. Panics if called with no outstanding submission
    /// (there would be nothing to wait for). The check is a snapshot —
    /// with the usual one-thread-per-client pattern it is exact.
    pub fn recv(&self) -> (u64, Response) {
        self.conn.recv_typed()
    }

    /// [`recv`](Self::recv) with a deadline; `None` on timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(u64, Response)> {
        self.conn.recv_typed_timeout(timeout)
    }

    /// Submit one query and wait for its reply.
    pub fn call(&self, query: Query) -> Response {
        self.conn.await_typed(self.submit(query))
    }

    /// Submit one query with an absolute deadline and wait for its
    /// reply (a result, or the `deadline_exceeded` error in its slot).
    pub fn call_with_deadline(&self, query: Query, deadline: Instant) -> Response {
        self.conn.await_typed(self.submit_with_deadline(query, Some(deadline)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parspeed_engine::{ArchKind, Engine, EvalValue, Request};

    fn optimize(n: usize) -> Query {
        Request::optimize(ArchKind::SyncBus, n).procs(64).query()
    }

    #[test]
    fn one_client_round_trip_and_shutdown_stats() {
        let server = Server::start(Arc::new(Engine::default()), ServerConfig::default());
        let client = server.client();
        match client.call(optimize(256)) {
            Response::Single(Ok(EvalValue::Optimum { processors, .. })) => {
                assert_eq!(processors, 14)
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.overloaded, 0);
        assert_eq!(stats.connections, 1);
        assert!(stats.draining);
    }

    #[test]
    fn pipelined_submissions_coalesce_into_fewer_batches() {
        let server = Server::start(
            Arc::new(Engine::default()),
            ServerConfig { window: Duration::from_millis(20), ..ServerConfig::default() },
        );
        let client = server.client();
        let seqs: Vec<u64> = (0..50).map(|_| client.submit(optimize(256))).collect();
        let mut replies = Vec::new();
        for _ in &seqs {
            replies.push(client.recv());
        }
        // In order, and all identical (one duplicated query).
        for (i, (seq, _)) in replies.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        assert!(replies.iter().all(|(_, r)| r == &replies[0].1));
        let stats = server.shutdown();
        assert_eq!(stats.completed, 50);
        assert!(stats.batches < 50, "window never coalesced: {stats}");
        assert!(stats.avg_batch_fill() > 1.0);
    }

    #[test]
    fn submissions_after_shutdown_get_the_overload_answer() {
        let server = Server::start(Arc::new(Engine::default()), ServerConfig::default());
        let client = server.client();
        client.call(optimize(128));
        server.shutdown();
        match client.call(optimize(256)) {
            Response::Invalid(e) => {
                assert_eq!(e.kind(), "overloaded");
                assert!(e.to_string().contains("draining"), "{e}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
