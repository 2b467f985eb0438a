//! `parspeed-router` — the sharded serving tier: a consistent-hash
//! scatter/gather frontend over a fleet of [`parspeed_server::Server`]
//! backends, whose size the paper's own optimizer predicts.
//!
//! A single server already amortizes coordination cost across clients
//! (the micro-batcher) and across duplicate work (the engine's dedup and
//! result cache). What it cannot amortize is **capacity**: one backend
//! holds one result cache, and a workload with more distinct hot keys
//! than the cache holds thrashes — exactly the paper's per-processor
//! memory constraint (§3–§4) surfacing at the serving layer. The fix is
//! the paper's fix: partition the problem. The router owns `P` shard
//! backends, each a full server + engine, and routes every request by
//! consistent-hashing its **canonical cache key**
//! ([`parspeed_engine::routing_hash`]) onto a hash ring
//! ([`ring::HashRing`]). Duplicate traffic — however it is spelled —
//! always lands on the same shard, so the fleet's aggregate cache keeps
//! `P×` the keys warm and each shard's hit rate is what a dedicated
//! machine would see.
//!
//! The serving guarantees are the server's, extended across the fleet:
//!
//! * **per-connection ordered replies** — gathered backend replies go
//!   through the exact seq-keyed reorder machinery
//!   ([`parspeed_server::ConnShared`]) a local server uses,
//!   so scattering across shards never reorders a connection's stream;
//! * **shard loss fails over, not disconnects** — killing a shard
//!   rebalances the ring (only the lost shard's keys move) and
//!   *redispatches* every retry-safe request in flight on it to the
//!   key's ring successor, with deterministic capped backoff
//!   ([`RetryPolicy`]); retry-unsafe requests (wall-clock measurements)
//!   answer the documented `overloaded` refusal carrying a
//!   machine-readable `retry_after_ms=` hint. No connection is ever
//!   dropped;
//! * **deadlines are answered, not dropped** — a request whose
//!   `deadline_ms` budget expires answers the `deadline_exceeded` kind
//!   in its own reply slot; the remaining budget travels with every
//!   (re)dispatch so a backend never computes an answer nobody waits
//!   for;
//! * **sick shards trip a breaker** — a shard that stalls or fails
//!   repeatedly is tripped out of the ring ([`BreakerPolicy`]),
//!   readmitted half-open after a probe interval, and reclosed on the
//!   first healthy reply (failed probes double the interval);
//! * **graceful drain** — router shutdown refuses new work in-slot,
//!   flushes every in-flight reply, then drains each backend.
//!
//! The router adds one thread to its fleet, not one per shard. A shard's
//! reply completes its origin slot through a completion callback
//! ([`parspeed_server::Client::submit_then`]) on the shard worker that
//! produced it; there is no gather thread. One maintenance thread trips
//! stalled lanes and, when a [`SupervisorPolicy`] is configured, heals
//! lost shards.
//!
//! Every recovery action counts into the fleet-level
//! [`parspeed_obs::ResilienceCounters`], answered on the wire by the
//! router-scoped `{"op":"metrics"}` record, and all of it is
//! deterministically testable: a seeded [`parspeed_chaos::FaultPlan`]
//! installed with [`Router::install_fault_plan`] kills shards, delays,
//! drops, or duplicates replies, and wedges lanes at scripted request
//! indices — the same seed replays the same event trace.
//!
//! The fleet is *self-sizing*: [`predict`] fits a measured shard sweep
//! to the paper's execution-time shape and runs `Query::Optimize` over
//! the fitted machine, so the same §5 machinery that sizes a processor
//! fleet sizes this one. `parspeed route --predict` exposes it, and the
//! serving-only `{"op":"topology"}` wire record reports the live fleet
//! (members, ring replicas, per-shard resident keys) that feeds it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod predict;
pub mod ring;

pub use fault::{BreakerPolicy, RetryPolicy, SupervisorPolicy};

use fault::BreakerState;
use parspeed_chaos::{mix, FaultAction, FaultPlan};
use parspeed_engine::{
    jsonl, routing_hash, ArchKind, CheckpointStore, Engine, ParspeedError, Query, Request,
    Response, WIRE_VERSION,
};
use parspeed_obs::ResilienceCounters;
use parspeed_server::{
    health_to_json, spawn_event_loop, Client, ConnShared, Delivery, EventLoopConfig, Server,
    ServerConfig, ServerStats, WireHandler, WireRequest,
};
use ring::HashRing;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fleet shape and per-backend configuration. `parspeed route` exposes
/// every field as a flag.
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Number of shard backends (`--shards`). The paper predicts this
    /// number — see [`predict`].
    pub shards: usize,
    /// Virtual ring points per shard (`--replicas`); more points smooth
    /// the key split across shards.
    pub replicas: usize,
    /// The configuration every shard's server runs with
    /// ([`ServerConfig::shard`] is overridden per backend).
    pub backend: ServerConfig,
    /// Deadline granted to every request that does not carry its own
    /// `deadline_ms` (`--deadline-ms`); `None` means no default.
    pub default_deadline: Option<Duration>,
    /// Retry/failover policy for requests lost with their shard.
    pub retry: RetryPolicy,
    /// Per-shard circuit-breaker policy.
    pub breaker: BreakerPolicy,
    /// Shard supervision: `Some` runs the self-healing supervisor
    /// (respawn, cache-warm rejoin, eviction); `None` — the default —
    /// keeps the pre-supervision behavior where a killed shard stays
    /// dead.
    pub supervisor: Option<SupervisorPolicy>,
    /// Event-loop tuning for the router's own TCP frontend. (The shard
    /// backends' frontends are configured through
    /// [`RouterConfig::backend`].)
    pub event_loop: EventLoopConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 4,
            replicas: 64,
            backend: ServerConfig::default(),
            default_deadline: None,
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
            supervisor: None,
            event_loop: EventLoopConfig::default(),
        }
    }
}

/// Most recent distinct keys remembered per shard for cache-warm
/// rejoin. Keys only — the values are recomputed by the replacement —
/// so the memory bound is a ring of queries, not a result cache.
const HOT_KEYS_PER_SHARD: usize = 128;

/// One scattered request waiting for its shard's reply: the origin
/// reply slot plus everything needed to render into it — and the
/// resilience state (deadline budget, attempt count, jitter token) that
/// travels with the slot across failovers.
struct Pending {
    conn: Arc<ConnShared>,
    seq: u64,
    query: Query,
    version: u32,
    line_no: usize,
    render: bool,
    /// Absolute budget: expire answers `deadline_exceeded` in-slot.
    deadline: Option<Instant>,
    /// Dispatch attempts already burned (0 on first dispatch).
    attempts: u32,
    /// Stable per-request token feeding the deterministic backoff
    /// jitter — the same request retries on the same schedule.
    token: u64,
    /// When this slot was last submitted to a lane (stall detection).
    submitted: Instant,
}

/// Routes one response into its origin reply slot, rendering for TCP
/// connections — the router-side twin of the batcher's `deliver`.
fn deliver(p: &Pending, response: Response) {
    let delivery = if p.render {
        Delivery::Line(jsonl::render_response(&p.query, &response, p.version, p.line_no))
    } else {
        Delivery::Typed(response)
    };
    p.conn.route(p.seq, delivery);
}

fn deliver_refusal(p: &Pending, msg: String) {
    deliver(p, Response::Invalid(ParspeedError::overloaded(msg)));
}

fn deliver_deadline(p: &Pending, msg: String) {
    deliver(p, Response::Invalid(ParspeedError::deadline_exceeded(msg)));
}

/// One shard's scatter lane: the in-process client into its server plus
/// the origin slots awaiting replies, keyed by lane ticket. Each
/// submission carries its ticket into a completion callback
/// ([`Core::on_reply`]) that runs on the shard worker producing the
/// reply, so replies need no particular order and no thread of their own.
struct Lane {
    shard: usize,
    /// The in-process client into this shard's *current* server. A
    /// respawn swaps it for a client into the replacement; readers take
    /// the lock only long enough to clone the `Arc`.
    client: Mutex<Arc<Client>>,
    /// Slots awaiting this shard's reply. Tickets only grow, so the
    /// first entry is the oldest (the stall check reads it), and a reply
    /// whose ticket a kill or a trip already took finds nothing.
    inflight: Mutex<BTreeMap<u64, Pending>>,
    /// The next lane ticket. Never reset, not even on respawn.
    next_ticket: AtomicU64,
    /// The shard was killed: the ring no longer routes here, every
    /// pending slot has been answered, late backend replies are noise.
    lost: AtomicBool,
    /// Injected fault (one-shot): milliseconds to stall the next reply.
    delay_ms: AtomicU64,
    /// Injected fault: replies to drop (the slot redispatches).
    drop_next: AtomicU64,
    /// Injected fault: replies to treat as duplicated (the second copy
    /// is suppressed).
    dup_next: AtomicU64,
    /// Injected fault: the lane discards every reply, like a hung
    /// connection — only the stall breaker gets it out.
    wedged: AtomicBool,
    /// Bounded ring of the most recent distinct keys routed here,
    /// newest at the back (see [`HOT_KEYS_PER_SHARD`]): the warmup set
    /// a replacement shard replays before rejoining the ring.
    hot: Mutex<VecDeque<(u64, Query)>>,
    /// Injected fault: deny this many upcoming respawn attempts (each
    /// denial burns one attempt from the respawn budget).
    respawn_deny: AtomicU64,
    /// Injected fault: kill the replacement this many more times right
    /// after it rejoins — the deterministic crash-loop driver.
    crashloop: AtomicU64,
}

impl Lane {
    fn client(&self) -> Arc<Client> {
        Arc::clone(&self.client.lock().unwrap())
    }
}

/// Per-shard supervision state (under `Core::sup`).
#[derive(Debug, Clone, Copy, Default)]
struct SupState {
    /// When the supervisor first observed this shard lost (`None` while
    /// healthy).
    lost_at: Option<Instant>,
    /// Respawn attempts burned (denied, failed, or successful).
    respawns: u32,
    /// Budget exhausted: the shard is out of the fleet for good.
    evicted: bool,
}

/// Per-shard warmup progress (the `warmup` wire op).
#[derive(Debug, Clone, Copy, Default)]
struct WarmupStatus {
    /// A warmup replay is running right now.
    active: bool,
    /// Keys this replay will push through the replacement.
    target: u64,
    /// Keys replayed so far (equal to `target` once complete).
    replayed: u64,
}

/// Everything the dispatchers, reply callbacks, the maintenance thread,
/// and the frontends share.
struct Core {
    cfg: RouterConfig,
    ring: Mutex<HashRing>,
    lanes: Vec<Arc<Lane>>,
    /// Each shard's engine; a respawn swaps in the replacement's.
    engines: Vec<Mutex<Arc<Engine>>>,
    servers: Mutex<Vec<Option<Server>>>,
    epoch: Instant,
    draining: AtomicBool,
    /// Fleet-level recovery counters (the router-scoped `metrics` op).
    resilience: Arc<ResilienceCounters>,
    /// Per-shard circuit breakers. Lock order: sup → breaker → ring →
    /// lane.
    breakers: Vec<Mutex<BreakerState>>,
    /// The installed deterministic fault plan, if any.
    faults: Mutex<Option<Arc<FaultPlan>>>,
    /// Builds a shard's engine — kept so the supervisor can build
    /// replacements with the caller's exact wiring (cache capacity,
    /// shared checkpoint store, …).
    factory: Box<dyn Fn(usize) -> Arc<Engine> + Send + Sync>,
    /// Per-shard supervision state.
    sup: Mutex<Vec<SupState>>,
    /// Per-shard warmup progress.
    warmups: Vec<Mutex<WarmupStatus>>,
    /// Next connection id (TCP and in-process clients share the space).
    next_conn_id: AtomicU64,
}

impl Core {
    /// Builds a connection's shared state — the one constructor for TCP
    /// and in-process connections alike, so both count duplicate routes
    /// into the fleet's `reorder_drops`.
    fn new_conn(&self) -> Arc<ConnShared> {
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        Arc::new(ConnShared::new(id).with_resilience(Arc::clone(&self.resilience)))
    }

    fn plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().unwrap().clone()
    }

    fn engine(&self, shard: usize) -> Arc<Engine> {
        Arc::clone(&self.engines[shard].lock().unwrap())
    }

    /// Scatter: hash the query's canonical key onto the ring and hand it
    /// to the owning lane. Every refusal is answered in the request's
    /// own reply slot — dispatch never blocks beyond the lane lock and
    /// never drops a slot.
    fn dispatch(self: &Arc<Self>, mut pending: Pending) {
        if self.draining.load(Ordering::SeqCst) {
            deliver_refusal(
                &pending,
                "router is draining for shutdown; request refused (not evaluated)".into(),
            );
            return;
        }
        if pending.attempts == 0 {
            // First dispatch only: tick the fault plan (one scripted
            // index per admitted request) and grant the default budget.
            self.tick_faults();
            if pending.deadline.is_none() {
                // `checked_add` so an absurd configured budget saturates
                // to "no deadline" instead of panicking the frontend.
                pending.deadline =
                    self.cfg.default_deadline.and_then(|d| Instant::now().checked_add(d));
            }
        }
        self.admit_probes();
        if pending.deadline.is_some_and(|d| Instant::now() >= d) {
            ResilienceCounters::bump(&self.resilience.deadline_missed);
            deliver_deadline(
                &pending,
                "deadline expired before any shard was reached; \
                 request refused (not evaluated)"
                    .into(),
            );
            return;
        }
        let hash = routing_hash(&pending.query);
        loop {
            let Some(shard) = self.ring.lock().unwrap().route(hash) else {
                deliver_refusal(
                    &pending,
                    "no shard available: every backend was lost; \
                     request refused (not evaluated)"
                        .into(),
                );
                return;
            };
            let lane = &self.lanes[shard];
            self.record_hot(lane, hash, &pending.query);
            let (query, deadline) = (pending.query.clone(), pending.deadline);
            let ticket = {
                let mut inflight = lane.inflight.lock().unwrap();
                if lane.lost.load(Ordering::SeqCst) {
                    // Lost between the ring lookup and the lane lock; the
                    // ring has already rebalanced — route again.
                    continue;
                }
                let ticket = lane.next_ticket.fetch_add(1, Ordering::Relaxed);
                pending.submitted = Instant::now();
                inflight.insert(ticket, pending);
                ticket
            };
            // Submit outside the lane lock: a refused submission calls
            // back on this thread, and the callback takes that lock. The
            // remaining deadline budget travels with the submission.
            let core = Arc::clone(self);
            lane.client().submit_then(query, deadline, move |response| {
                core.on_reply(shard, ticket, response)
            });
            return;
        }
    }

    /// Remembers `query` in the shard's hot-key ring (keys only, newest
    /// at the back, distinct by routing hash). Effect queries are
    /// excluded — replaying a wall-clock measurement is not a warmup.
    fn record_hot(&self, lane: &Lane, hash: u64, query: &Query) {
        if !query.retry_safe() {
            return;
        }
        let mut hot = lane.hot.lock().unwrap();
        if let Some(pos) = hot.iter().position(|&(h, _)| h == hash) {
            hot.remove(pos);
        } else if hot.len() >= HOT_KEYS_PER_SHARD {
            hot.pop_front();
        }
        hot.push_back((hash, query.clone()));
    }

    /// Fires any fault-plan triggers due at this request index. Called
    /// once per admitted request (never on retries).
    fn tick_faults(self: &Arc<Self>) {
        let Some(plan) = self.plan() else { return };
        for action in plan.on_request() {
            let in_range = match action {
                FaultAction::KillShard { shard }
                | FaultAction::DelayLane { shard, .. }
                | FaultAction::DropReply { shard }
                | FaultAction::DuplicateReply { shard }
                | FaultAction::WedgeLane { shard }
                | FaultAction::RespawnDeny { shard }
                | FaultAction::CrashLoop { shard, .. } => shard < self.cfg.shards,
                FaultAction::PanicWorker => true,
            };
            if !in_range {
                plan.record(format!("router: ignoring fault {action} (shard out of range)"));
                continue;
            }
            match action {
                FaultAction::KillShard { shard } => {
                    self.kill_shard(shard);
                }
                FaultAction::DelayLane { shard, millis } => {
                    self.lanes[shard].delay_ms.fetch_add(millis, Ordering::SeqCst);
                    plan.record(format!("router: armed {millis} ms reply delay on lane {shard}"));
                }
                FaultAction::DropReply { shard } => {
                    self.lanes[shard].drop_next.fetch_add(1, Ordering::SeqCst);
                    plan.record(format!("router: armed a reply drop on lane {shard}"));
                }
                FaultAction::DuplicateReply { shard } => {
                    self.lanes[shard].dup_next.fetch_add(1, Ordering::SeqCst);
                    plan.record(format!("router: armed a duplicate reply on lane {shard}"));
                }
                FaultAction::WedgeLane { shard } => {
                    self.lanes[shard].wedged.store(true, Ordering::SeqCst);
                    plan.record(format!("router: wedged lane {shard} (replies will stall)"));
                }
                FaultAction::RespawnDeny { shard } => {
                    self.lanes[shard].respawn_deny.fetch_add(1, Ordering::SeqCst);
                    plan.record(format!("router: armed a respawn denial on shard {shard}"));
                }
                FaultAction::CrashLoop { shard, times } => {
                    // One kill now, `times - 1` more armed against each
                    // future rejoin: the deterministic crash-loop.
                    self.lanes[shard].crashloop.store(times.saturating_sub(1), Ordering::SeqCst);
                    plan.record(format!("router: crash-looping shard {shard} ({times} kill(s))"));
                    self.kill_shard(shard);
                }
                FaultAction::PanicWorker => {
                    plan.record(
                        "router: ignoring worker-level fault \
                         (install the plan on a shard server)",
                    );
                }
            }
        }
    }

    /// Readmits breaker-opened shards whose probe time has arrived:
    /// half-open, back in the ring, lane unwedged. Cheap (one mutex try
    /// per shard), called on every dispatch.
    fn admit_probes(&self) {
        let now = Instant::now();
        for (shard, slot) in self.breakers.iter().enumerate() {
            let mut state = slot.lock().unwrap();
            let BreakerState::Open { probe_at, probe_interval } = *state else { continue };
            if now < probe_at || self.lanes[shard].lost.load(Ordering::SeqCst) {
                continue;
            }
            *state = BreakerState::HalfOpen { probe_interval };
            // A readmitted lane consumes replies again (an injected
            // wedge is healed by the probe).
            self.lanes[shard].wedged.store(false, Ordering::SeqCst);
            self.ring.lock().unwrap().add(shard);
            if let Some(plan) = self.plan() {
                plan.record(format!("router: shard {shard} readmitted half-open for a probe"));
            }
        }
    }

    /// Records the health of one delivered reply into the shard's
    /// breaker: a healthy reply recloses a half-open breaker (or resets
    /// the failure streak); an `internal`-kind reply counts toward the
    /// trip threshold, and fails a probe outright.
    fn note_reply(self: &Arc<Self>, shard: usize, healthy: bool) {
        let mut state = self.breakers[shard].lock().unwrap();
        match (*state, healthy) {
            (BreakerState::HalfOpen { .. }, true) => {
                *state = BreakerState::Closed { failures: 0 };
                ResilienceCounters::bump(&self.resilience.breaker_reclosed);
                drop(state);
                if let Some(plan) = self.plan() {
                    plan.record(format!(
                        "router: breaker reclosed on shard {shard} (probe succeeded)"
                    ));
                }
            }
            (BreakerState::Closed { failures }, true) if failures > 0 => {
                *state = BreakerState::Closed { failures: 0 };
            }
            (BreakerState::Closed { failures }, false) => {
                if failures + 1 >= self.cfg.breaker.failure_threshold {
                    *state = BreakerState::Closed { failures: 0 };
                    drop(state);
                    self.trip_shard(shard, "consecutive failures");
                } else {
                    *state = BreakerState::Closed { failures: failures + 1 };
                }
            }
            (BreakerState::HalfOpen { .. }, false) => {
                drop(state);
                self.trip_shard(shard, "probe failed");
            }
            // Late replies from an already-open breaker, and healthy
            // replies on a clean closed breaker: nothing to record.
            _ => {}
        }
    }

    /// Trips one shard's breaker open: out of the ring, in-flight slots
    /// redispatched (their late backend replies find no ticket). The
    /// shard's server keeps running — readmission is the probe's job.
    fn trip_shard(self: &Arc<Self>, shard: usize, why: &str) {
        let lane = &self.lanes[shard];
        if lane.lost.load(Ordering::SeqCst) {
            return;
        }
        {
            let mut state = self.breakers[shard].lock().unwrap();
            let interval = match *state {
                BreakerState::Open { .. } => return, // already tripped
                BreakerState::Closed { .. } => self.cfg.breaker.probe_after,
                // A failed probe doubles the wait before the next one.
                BreakerState::HalfOpen { probe_interval } => probe_interval * 2,
            };
            *state = BreakerState::Open {
                probe_at: Instant::now() + interval,
                probe_interval: interval,
            };
            let mut ring = self.ring.lock().unwrap();
            if ring.members().contains(&shard) {
                ring.remove(shard);
            }
        }
        ResilienceCounters::bump(&self.resilience.breaker_opened);
        let drained = std::mem::take(&mut *lane.inflight.lock().unwrap());
        if let Some(plan) = self.plan() {
            plan.record(format!(
                "router: breaker opened on shard {shard} ({why}); \
                 {} in-flight redispatched",
                drained.len()
            ));
        }
        for p in drained.into_values() {
            self.redispatch(p, shard);
        }
    }

    /// Retries one slot whose shard failed under it: immediate failover
    /// on the first attempt, deterministic capped backoff after, with
    /// the documented in-slot refusals when the budget, the attempt
    /// cap, or retry-safety says stop.
    fn redispatch(self: &Arc<Self>, mut p: Pending, from_shard: usize) {
        p.attempts += 1;
        let r = self.cfg.retry;
        if p.deadline.is_some_and(|d| Instant::now() >= d) {
            ResilienceCounters::bump(&self.resilience.deadline_missed);
            deliver_deadline(
                &p,
                format!(
                    "deadline expired while failing over from shard {from_shard}; \
                     result not produced (the request may or may not have been evaluated)"
                ),
            );
            return;
        }
        // The client-facing hint: the deterministic wait the next
        // attempt would use — never zero, which would read as "hammer
        // the router immediately".
        let hint = parspeed_chaos::backoff_ms(
            r.backoff_base_ms,
            r.backoff_cap_ms,
            p.attempts + 1,
            r.seed,
            p.token,
        )
        .max(1);
        if !p.query.retry_safe() {
            deliver_refusal(
                &p,
                format!(
                    "shard {from_shard} was lost with the request in flight; not evaluated — \
                     this query measures wall-clock time and is not retry-safe; \
                     the ring has rebalanced, retry_after_ms={hint}"
                ),
            );
            return;
        }
        if p.attempts >= r.max_attempts {
            deliver_refusal(
                &p,
                format!(
                    "shard {from_shard} was lost with the request in flight; not evaluated — \
                     {} dispatch attempts exhausted; \
                     the ring has rebalanced, retry_after_ms={hint}",
                    p.attempts
                ),
            );
            return;
        }
        ResilienceCounters::bump(&self.resilience.retries);
        if !self.ring.lock().unwrap().members().contains(&from_shard) {
            // The shard left the ring: this retry lands on the key's
            // ring successor, not the same backend.
            ResilienceCounters::bump(&self.resilience.failovers);
        }
        let wait = parspeed_chaos::backoff_ms(
            r.backoff_base_ms,
            r.backoff_cap_ms,
            p.attempts,
            r.seed,
            p.token,
        );
        if wait > 0 {
            std::thread::sleep(Duration::from_millis(wait));
        }
        self.dispatch(p);
    }

    /// Kills one shard: ring removal, in-flight redispatch, backend
    /// drain. Returns the backend's final stats, or `None` if the shard
    /// was already out of the ring.
    fn kill_shard(self: &Arc<Self>, shard: usize) -> Option<ServerStats> {
        assert!(shard < self.cfg.shards, "shard {shard} out of range");
        {
            let mut ring = self.ring.lock().unwrap();
            if !ring.members().contains(&shard) {
                return None;
            }
            ring.remove(shard);
        }
        let lane = &self.lanes[shard];
        let drained = {
            // Flag and drain under the lane lock: dispatchers that chose
            // this shard before the ring update re-route instead of
            // enqueueing behind a dead backend.
            let mut inflight = lane.inflight.lock().unwrap();
            lane.lost.store(true, Ordering::SeqCst);
            std::mem::take(&mut *inflight)
        };
        if let Some(plan) = self.plan() {
            plan.record(format!(
                "router: shard {shard} lost; {} in-flight slot(s) redispatched",
                drained.len()
            ));
        }
        // Claim the backend before redispatching (so a concurrent
        // supervisor respawn can never install a replacement we would
        // then tear down), but shut it down only after: failovers
        // answer at the survivors' speed, not the corpse's.
        let server = self.servers.lock().unwrap()[shard].take();
        for p in drained.into_values() {
            self.redispatch(p, shard);
        }
        server.map(Server::shutdown)
    }

    /// The router's own `health` record: uptime and drain flag, shard
    /// `null` (the router is the front, not a backend) — plus the
    /// additive `breakers` summary (one state word per shard). New
    /// fields append after the frozen six-field prefix; positional
    /// parsers of the original record keep working.
    fn health(&self) -> jsonl::Json {
        let mut json = health_to_json(
            self.epoch.elapsed().as_secs_f64(),
            self.draining.load(Ordering::SeqCst),
            None,
        );
        if let jsonl::Json::Obj(fields) = &mut json {
            fields.push((
                "breakers".into(),
                jsonl::Json::Arr(
                    self.shard_states().into_iter().map(|s| jsonl::Json::Str(s.into())).collect(),
                ),
            ));
        }
        json
    }

    /// The router-scoped `metrics` record: the fleet-level resilience
    /// counters plus each shard's breaker state. Per-shard serving
    /// metrics still live on the shards (`stats`/`trace` refuse here).
    fn metrics(&self) -> jsonl::Json {
        let breakers: Vec<jsonl::Json> = self
            .shard_states()
            .into_iter()
            .enumerate()
            .map(|(shard, state)| {
                jsonl::Json::Obj(vec![
                    ("shard".into(), jsonl::Json::Num(shard as f64)),
                    ("state".into(), jsonl::Json::Str(state.into())),
                ])
            })
            .collect();
        // The checkpoint counters live on the (typically fleet-shared)
        // store, not the router; fold them in, counting each distinct
        // store once.
        let mut snapshot = self.resilience.snapshot();
        let mut seen: Vec<*const CheckpointStore> = Vec::new();
        for shard in 0..self.cfg.shards {
            let engine = self.engine(shard);
            if let Some(store) = engine.checkpoint_store() {
                let ptr = Arc::as_ptr(store);
                if seen.contains(&ptr) {
                    continue;
                }
                seen.push(ptr);
                snapshot.checkpoints_taken += store.taken();
                snapshot.resumes += store.resumes();
            }
        }
        let resilience = jsonl::Json::Obj(
            snapshot
                .fields()
                .iter()
                .map(|&(k, v)| (k.to_string(), jsonl::Json::Num(v as f64)))
                .collect(),
        );
        jsonl::Json::Obj(vec![
            ("version".into(), jsonl::Json::Num(WIRE_VERSION as f64)),
            ("op".into(), jsonl::Json::Str("metrics".into())),
            ("scope".into(), jsonl::Json::Str("router".into())),
            ("resilience".into(), resilience),
            ("breakers".into(), jsonl::Json::Arr(breakers)),
        ])
    }

    /// The serving-only `topology` record: the live fleet as the ring
    /// sees it, plus each member's resident cache keys — the live
    /// workload profile [`predict`] sizes fleets from.
    fn topology(&self) -> jsonl::Json {
        let (members, replicas) = {
            let ring = self.ring.lock().unwrap();
            (ring.members().to_vec(), ring.replicas())
        };
        let lost: Vec<jsonl::Json> = (0..self.cfg.shards)
            .filter(|s| !members.contains(s))
            .map(|s| jsonl::Json::Num(s as f64))
            .collect();
        let resident: Vec<jsonl::Json> =
            members.iter().map(|&s| jsonl::Json::Num(self.engine(s).cache_len() as f64)).collect();
        jsonl::Json::Obj(vec![
            ("version".into(), jsonl::Json::Num(WIRE_VERSION as f64)),
            ("op".into(), jsonl::Json::Str("topology".into())),
            ("shards".into(), jsonl::Json::Num(members.len() as f64)),
            ("replicas".into(), jsonl::Json::Num(replicas as f64)),
            (
                "members".into(),
                jsonl::Json::Arr(members.iter().map(|&s| jsonl::Json::Num(s as f64)).collect()),
            ),
            ("lost".into(), jsonl::Json::Arr(lost)),
            ("resident".into(), jsonl::Json::Arr(resident)),
        ])
    }

    /// Trips the stall breaker if the lane's oldest in-flight slot has
    /// waited past the stall threshold with no reply at all.
    fn check_stall(self: &Arc<Self>, lane: &Lane) {
        let stalled = {
            let inflight = lane.inflight.lock().unwrap();
            !lane.lost.load(Ordering::SeqCst)
                && inflight
                    .first_key_value()
                    .is_some_and(|(_, p)| p.submitted.elapsed() >= self.cfg.breaker.stall_after)
        };
        if stalled {
            self.trip_shard(lane.shard, "reply stall");
        }
    }

    /// A shard reply's completion callback, run on the shard worker that
    /// produced it: apply any armed injected faults, then deliver into
    /// the origin slot registered under `ticket`.
    fn on_reply(self: &Arc<Self>, shard: usize, ticket: u64, response: Response) {
        let lane = &self.lanes[shard];
        // An injected wedge: the reply is lost, as on a hung backend
        // connection, and the ticket stays registered — only the stall
        // breaker (which redispatches the waiting slots) gets it out.
        if lane.wedged.load(Ordering::SeqCst) {
            return;
        }
        let delay = lane.delay_ms.swap(0, Ordering::SeqCst);
        if delay > 0 {
            std::thread::sleep(Duration::from_millis(delay));
        }
        // No ticket: a kill or a breaker trip already answered or
        // redispatched this slot, and the reply has no waiter.
        let Some(p) = lane.inflight.lock().unwrap().remove(&ticket) else { return };
        if lane
            .drop_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            // Injected reply drop: the backend's answer evaporates;
            // the slot retries instead of waiting forever.
            ResilienceCounters::bump(&self.resilience.replies_dropped);
            if let Some(plan) = self.plan() {
                plan.record(format!("router: dropped a reply on lane {shard}; slot redispatched"));
            }
            self.redispatch(p, shard);
            return;
        }
        if lane
            .dup_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            // Injected duplicate: the reply "arrives twice"; the second
            // copy is suppressed — every slot is delivered exactly once,
            // never routed twice.
            ResilienceCounters::bump(&self.resilience.duplicates_suppressed);
            if let Some(plan) = self.plan() {
                plan.record(format!("router: suppressed a duplicate reply on lane {shard}"));
            }
        }
        // Book-keep before delivering: a closed-loop client that just
        // saw its reply must also see the counters it caused.
        let healthy = !matches!(&response, Response::Invalid(e) if e.kind() == "internal");
        self.note_reply(shard, healthy);
        deliver(&p, response);
    }

    /// The maintenance thread: every tick, trip stalled lanes and — when
    /// a [`SupervisorPolicy`] is configured — heal lost shards. Exits
    /// once the router is draining and no lane has a slot in flight;
    /// stall checks keep running through the drain, because a wedged
    /// lane empties only when its breaker trips.
    fn maintain(self: &Arc<Self>) {
        let tick = (self.cfg.breaker.stall_after / 8)
            .clamp(Duration::from_millis(1), Duration::from_millis(10));
        loop {
            for lane in &self.lanes {
                self.check_stall(lane);
            }
            if self.draining.load(Ordering::SeqCst) {
                if self.lanes.iter().all(|lane| lane.inflight.lock().unwrap().is_empty()) {
                    return;
                }
            } else if let Some(policy) = self.cfg.supervisor {
                // Wedged-but-alive shards are not supervision's business
                // — the stall breaker trips, probes, and recloses those;
                // supervision handles the one failure the breaker cannot:
                // the server is *gone*.
                for shard in 0..self.cfg.shards {
                    self.supervise_shard(shard, policy);
                }
            }
            std::thread::sleep(tick);
        }
    }

    /// One supervision step for one shard: observe loss, debounce,
    /// spend (or exhaust) the respawn budget, respawn.
    fn supervise_shard(self: &Arc<Self>, shard: usize, policy: SupervisorPolicy) {
        let lane = &self.lanes[shard];
        if !lane.lost.load(Ordering::SeqCst) {
            self.sup.lock().unwrap()[shard].lost_at = None;
            return;
        }
        let attempt = {
            let mut sup = self.sup.lock().unwrap();
            let st = &mut sup[shard];
            if st.evicted {
                return;
            }
            if st.respawns >= policy.max_respawns {
                st.evicted = true;
                let spent = st.respawns;
                drop(sup);
                // Machine-readable: the one line an operator's tooling
                // greps for when a shard leaves the fleet for good.
                if let Some(plan) = self.plan() {
                    plan.record(format!(
                        "{{\"event\":\"shard-evicted\",\"shard\":{shard},\"respawns\":{spent}}}"
                    ));
                }
                return;
            }
            let lost_at = *st.lost_at.get_or_insert_with(Instant::now);
            let attempt = st.respawns + 1;
            // Deterministic-jitter backoff on top of the debounce floor:
            // attempt 1 waits only `respawn_after`, later attempts add
            // the capped `backoff_ms` schedule.
            let base = policy.respawn_backoff.as_millis() as u64;
            let jitter = parspeed_chaos::backoff_ms(
                base,
                base.saturating_mul(32),
                attempt,
                self.cfg.retry.seed,
                mix(shard as u64),
            );
            if lost_at.elapsed() < policy.respawn_after + Duration::from_millis(jitter) {
                return;
            }
            st.respawns = attempt; // every attempt spends budget
            attempt
        };
        // A scripted denial (chaos `respawn-deny:S`): the attempt burns
        // with no replacement — capacity was refused.
        if lane
            .respawn_deny
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            self.sup.lock().unwrap()[shard].lost_at = Some(Instant::now());
            if let Some(plan) = self.plan() {
                plan.record(format!("router: respawn of shard {shard} denied (attempt {attempt})"));
            }
            return;
        }
        self.respawn_shard(shard, attempt, policy);
    }

    /// Spawns a replacement shard: fresh server + engine from the
    /// factory, readiness probe, cache-warm replay, and — only once all
    /// of that held — readmission to the ring. A failure at any step
    /// abandons the replacement and leaves the ring exactly as it was:
    /// the ring changes at most once per successful respawn, never
    /// half-way.
    fn respawn_shard(self: &Arc<Self>, shard: usize, attempt: u32, policy: SupervisorPolicy) {
        let lane = &self.lanes[shard];
        let abandon = |server: Server, why: &str| {
            server.shutdown();
            self.sup.lock().unwrap()[shard].lost_at = Some(Instant::now());
            if let Some(plan) = self.plan() {
                plan.record(format!(
                    "router: respawn of shard {shard} abandoned ({why}, attempt {attempt})"
                ));
            }
        };
        let engine = (self.factory)(shard);
        let server =
            Server::start(engine.clone(), ServerConfig { shard: Some(shard), ..self.cfg.backend });
        let client = server.client();

        // Readiness: the replacement must answer a real query before it
        // can own keys.
        client.submit(Request::optimize(ArchKind::SyncBus, 64).procs(4).query());
        if client.recv_timeout(self.cfg.breaker.stall_after).is_none() {
            abandon(server, "readiness probe stalled");
            return;
        }

        // Cache-warm rejoin: replay the warm fraction of the shard's
        // hot keys, newest first. Keys only — the replacement computes
        // every value through the normal engine path, so its replies
        // are bit-identical to any other shard's.
        let keys: Vec<Query> = {
            let hot = lane.hot.lock().unwrap();
            let want = ((hot.len() as f64) * policy.warm_fraction.clamp(0.0, 1.0)).ceil() as usize;
            hot.iter().rev().take(want).map(|(_, q)| q.clone()).collect()
        };
        *self.warmups[shard].lock().unwrap() =
            WarmupStatus { active: true, target: keys.len() as u64, replayed: 0 };
        for query in &keys {
            client.submit(query.clone());
            if client.recv_timeout(self.cfg.breaker.stall_after).is_none() {
                self.warmups[shard].lock().unwrap().active = false;
                abandon(server, "warmup replay stalled");
                return;
            }
            ResilienceCounters::bump(&self.resilience.warmup_keys_replayed);
            self.warmups[shard].lock().unwrap().replayed += 1;
        }
        self.warmups[shard].lock().unwrap().active = false;

        // Install: server and client in place, injected faults cleared,
        // breaker closed — and only then the ring readmission that
        // routes traffic here.
        self.servers.lock().unwrap()[shard] = Some(server);
        *self.engines[shard].lock().unwrap() = engine;
        *lane.client.lock().unwrap() = Arc::new(client);
        lane.delay_ms.store(0, Ordering::SeqCst);
        lane.drop_next.store(0, Ordering::SeqCst);
        lane.dup_next.store(0, Ordering::SeqCst);
        lane.wedged.store(false, Ordering::SeqCst);
        *self.breakers[shard].lock().unwrap() = BreakerState::Closed { failures: 0 };
        lane.lost.store(false, Ordering::SeqCst);
        {
            let mut ring = self.ring.lock().unwrap();
            if !ring.members().contains(&shard) {
                ring.add(shard);
            }
        }
        ResilienceCounters::bump(&self.resilience.respawns);
        if let Some(plan) = self.plan() {
            plan.record(format!(
                "router: shard {shard} respawned and rejoined the ring \
                 (attempt {attempt}, {} key(s) warm)",
                keys.len()
            ));
        }
        // An armed crash-loop (chaos `crashloop:S:N`): the replacement
        // dies on arrival, spending another respawn from the budget.
        if lane
            .crashloop
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            if let Some(plan) = self.plan() {
                plan.record(format!("router: crash-loop killed shard {shard} again"));
            }
            self.kill_shard(shard);
            self.sup.lock().unwrap()[shard].lost_at = Some(Instant::now());
        }
    }

    /// Each shard's one-word condition for `metrics` and `health`:
    /// `evicted` dominates `lost` dominates the breaker state.
    fn shard_states(&self) -> Vec<&'static str> {
        let sup = self.sup.lock().unwrap();
        (0..self.cfg.shards)
            .map(|shard| {
                if sup[shard].evicted {
                    "evicted"
                } else if self.lanes[shard].lost.load(Ordering::SeqCst) {
                    "lost"
                } else {
                    self.breakers[shard].lock().unwrap().name()
                }
            })
            .collect()
    }

    /// The `warmup` wire record: per-shard cache-warm rejoin progress.
    fn warmup(&self) -> jsonl::Json {
        let shards: Vec<jsonl::Json> = (0..self.cfg.shards)
            .map(|shard| {
                let w = *self.warmups[shard].lock().unwrap();
                jsonl::Json::Obj(vec![
                    ("shard".into(), jsonl::Json::Num(shard as f64)),
                    ("active".into(), jsonl::Json::Bool(w.active)),
                    ("target".into(), jsonl::Json::Num(w.target as f64)),
                    ("replayed".into(), jsonl::Json::Num(w.replayed as f64)),
                ])
            })
            .collect();
        jsonl::Json::Obj(vec![
            ("version".into(), jsonl::Json::Num(WIRE_VERSION as f64)),
            ("op".into(), jsonl::Json::Str("warmup".into())),
            ("shards".into(), jsonl::Json::Arr(shards)),
        ])
    }
}

/// The running router: shard servers, the maintenance thread, and any
/// TCP frontends attached. Shard replies need no thread of their own:
/// each completes its origin slot on the shard worker that produced it.
/// Dropping the router without [`shutdown`](Router::shutdown) leaks the
/// fleet's threads — call `shutdown`.
pub struct Router {
    core: Arc<Core>,
    maintenance: JoinHandle<()>,
    event_loops: Vec<JoinHandle<()>>,
}

impl Router {
    /// Starts a fleet of `config.shards` backends, each over its own
    /// default [`Engine`].
    pub fn start(config: RouterConfig) -> Router {
        Self::start_with(config, |_| Arc::new(Engine::default()))
    }

    /// Starts the fleet with one engine per shard from `factory` —
    /// benches and tests use this to pin per-shard cache capacity (the
    /// paper's per-processor memory constraint).
    pub fn start_with(
        config: RouterConfig,
        factory: impl Fn(usize) -> Arc<Engine> + Send + Sync + 'static,
    ) -> Router {
        assert!(config.shards >= 1, "router needs at least one shard");
        let mut engines = Vec::with_capacity(config.shards);
        let mut servers = Vec::with_capacity(config.shards);
        let mut lanes = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let engine = factory(shard);
            let server = Server::start(
                engine.clone(),
                ServerConfig { shard: Some(shard), ..config.backend },
            );
            let client = server.client();
            engines.push(Mutex::new(engine));
            servers.push(Some(server));
            lanes.push(Arc::new(Lane {
                shard,
                client: Mutex::new(Arc::new(client)),
                inflight: Mutex::new(BTreeMap::new()),
                next_ticket: AtomicU64::new(0),
                lost: AtomicBool::new(false),
                delay_ms: AtomicU64::new(0),
                drop_next: AtomicU64::new(0),
                dup_next: AtomicU64::new(0),
                wedged: AtomicBool::new(false),
                hot: Mutex::new(VecDeque::new()),
                respawn_deny: AtomicU64::new(0),
                crashloop: AtomicU64::new(0),
            }));
        }
        let core = Arc::new(Core {
            cfg: config,
            ring: Mutex::new(HashRing::with_shards(config.shards, config.replicas)),
            lanes,
            engines,
            servers: Mutex::new(servers),
            epoch: Instant::now(),
            draining: AtomicBool::new(false),
            resilience: Arc::new(ResilienceCounters::new()),
            breakers: (0..config.shards)
                .map(|_| Mutex::new(BreakerState::Closed { failures: 0 }))
                .collect(),
            faults: Mutex::new(None),
            factory: Box::new(factory),
            sup: Mutex::new(vec![SupState::default(); config.shards]),
            warmups: (0..config.shards).map(|_| Mutex::new(WarmupStatus::default())).collect(),
            next_conn_id: AtomicU64::new(0),
        });
        let maintenance = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("parspeed-maint".into())
                .spawn(move || core.maintain())
                .expect("spawn maintenance thread")
        };
        Router { core, maintenance, event_loops: Vec::new() }
    }

    /// The fleet configuration this router was started with.
    pub fn config(&self) -> &RouterConfig {
        &self.core.cfg
    }

    /// The fleet-level resilience counters: every retry, failover,
    /// missed deadline, breaker transition, and suppressed duplicate.
    pub fn resilience(&self) -> Arc<ResilienceCounters> {
        Arc::clone(&self.core.resilience)
    }

    /// The router-scoped `metrics` record (also answered on the wire).
    pub fn metrics(&self) -> jsonl::Json {
        self.core.metrics()
    }

    /// The `warmup` record: per-shard cache-warm rejoin progress (also
    /// answered on the wire).
    pub fn warmup(&self) -> jsonl::Json {
        self.core.warmup()
    }

    /// Shards the supervisor permanently evicted (respawn budget
    /// exhausted). Empty without a supervisor.
    pub fn evicted_shards(&self) -> Vec<usize> {
        let sup = self.core.sup.lock().unwrap();
        (0..self.core.cfg.shards).filter(|&s| sup[s].evicted).collect()
    }

    /// Installs (or clears, with `None`) a deterministic fault plan:
    /// scripted kills, delays, drops, duplicates, and wedges fire at
    /// their request indices, and every recovery action is recorded to
    /// the plan's event trace — the same seed replays the same trace.
    pub fn install_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.core.faults.lock().unwrap() = plan;
    }

    /// Live cached outcomes per ring member, `(shard, resident keys)` —
    /// the affinity evidence: with key-affinity routing the sum equals
    /// the workload's distinct key count, with no key cached twice.
    pub fn resident_keys(&self) -> Vec<(usize, usize)> {
        let members = self.core.ring.lock().unwrap().members().to_vec();
        members.into_iter().map(|s| (s, self.core.engine(s).cache_len())).collect()
    }

    /// The serving-only `topology` record (also answered on the wire).
    pub fn topology(&self) -> jsonl::Json {
        self.core.topology()
    }

    /// Opens an in-process connection: typed queries scattered across
    /// the fleet, replies gathered back in submission order — the exact
    /// semantics of a TCP connection, without the wire.
    pub fn client(&self) -> RouterClient {
        RouterClient { conn: self.core.new_conn(), core: Arc::clone(&self.core) }
    }

    /// Kills one shard: removes it from the ring (only its keys remap —
    /// every other key keeps its warm backend), *redispatches* every
    /// retry-safe request in flight on it to the key's ring successor
    /// (retry-unsafe ones answer the documented `overloaded` refusal
    /// with a `retry_after_ms=` hint), and drains its server. Returns
    /// the backend's final stats, or `None` if the shard was already
    /// gone.
    pub fn kill_shard(&self, shard: usize) -> Option<ServerStats> {
        self.core.kill_shard(shard)
    }

    /// Binds `addr` and accepts wire-v2 JSONL connections on a
    /// background event-loop thread — the same wire a single server
    /// speaks, so clients cannot tell a router from a server (except by
    /// asking: `topology` and the router-scoped `metrics` answer here,
    /// `stats`/`trace` only answer on a shard). Returns the bound
    /// address (so `:0` works).
    pub fn listen(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = parspeed_netio::listen(addr)?;
        let local = listener.local_addr()?;
        let handler = Arc::new(RouterHandler { core: Arc::clone(&self.core) });
        let thread = spawn_event_loop(
            listener,
            handler,
            self.core.cfg.event_loop,
            "parspeed-route-eventloop".into(),
        )?;
        self.event_loops.push(thread);
        Ok(local)
    }

    /// Graceful drain: refuses new work in-slot, flushes every in-flight
    /// reply through its origin slot, closes connections, drains every
    /// surviving backend, and joins every thread. Returns each
    /// surviving shard's final server stats.
    pub fn shutdown(self) -> Vec<(usize, ServerStats)> {
        self.core.draining.store(true, Ordering::SeqCst);
        for event_loop in self.event_loops {
            let _ = event_loop.join();
        }
        // The maintenance thread stops supervising on the drain flag (no
        // respawn races the teardown below) and exits once every lane has
        // flushed: backends are still running, so every pending slot gets
        // its real reply, or its failover when a stalled lane trips.
        let _ = self.maintenance.join();
        let servers = std::mem::take(&mut *self.core.servers.lock().unwrap());
        servers
            .into_iter()
            .enumerate()
            .filter_map(|(shard, server)| server.map(|s| (shard, s.shutdown())))
            .collect()
    }
}

/// An in-process connection to the router: typed queries in, typed
/// responses out, gathered in submission order — the router-side twin
/// of [`parspeed_server::Client`].
pub struct RouterClient {
    conn: Arc<ConnShared>,
    core: Arc<Core>,
}

impl RouterClient {
    /// Submits one query, returning its connection-local sequence
    /// number. Never blocks beyond the lane lock: refusals (draining
    /// router, empty ring) are answered in the reply slot like any
    /// other reply.
    pub fn submit(&self, query: Query) -> u64 {
        self.submit_with_deadline(query, None)
    }

    /// [`submit`](Self::submit) with an absolute deadline: if the
    /// budget expires before any shard answers — across queueing,
    /// batching, and failover — the slot answers the
    /// `deadline_exceeded` kind instead of blocking forever.
    pub fn submit_with_deadline(&self, query: Query, deadline: Option<Instant>) -> u64 {
        let seq = self.conn.alloc_seq();
        self.core.dispatch(Pending {
            conn: Arc::clone(&self.conn),
            seq,
            query,
            version: WIRE_VERSION,
            line_no: seq as usize + 1,
            render: false,
            deadline,
            attempts: 0,
            token: mix(self.conn.id).wrapping_add(seq),
            submitted: Instant::now(),
        });
        seq
    }

    /// Receives the next reply in submission order, blocking until it
    /// is released. Panics if nothing is outstanding.
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

    /// Submit one query with a deadline and wait for its reply (which
    /// may be the in-slot `deadline_exceeded` answer).
    pub fn call_with_deadline(&self, query: Query, deadline: Instant) -> Response {
        self.conn.await_typed(self.submit_with_deadline(query, Some(deadline)))
    }
}

/// Glues the shared event loop to the router core: the router's
/// serving-op table and its admission step (scatter into the fleet, or
/// the in-slot refusal when the loop sheds).
struct RouterHandler {
    core: Arc<Core>,
}

impl WireHandler for RouterHandler {
    fn connect(&self) -> Arc<ConnShared> {
        self.core.new_conn()
    }

    /// The wire is the server's wire; the router-only differences are
    /// `topology` (unknown to a shard), `metrics` (the router-scoped
    /// resilience record), `warmup`, and `stats`/`trace` — per-shard
    /// state the router refuses to misattribute (probe a shard
    /// directly).
    fn serve_op(&self, op: &str) -> Option<Result<jsonl::Json, ParspeedError>> {
        let core = &self.core;
        Some(match op {
            "health" => Ok(core.health()),
            "topology" => Ok(core.topology()),
            "metrics" => Ok(core.metrics()),
            "warmup" => Ok(core.warmup()),
            "stats" | "trace" => Err(ParspeedError::unsupported(format!(
                "op \"{op}\" reports per-shard state; probe a shard's own serving address"
            ))),
            _ => return None,
        })
    }

    fn admit(&self, conn: &Arc<ConnShared>, request: WireRequest, shed: Option<&str>) {
        let pending = Pending {
            conn: Arc::clone(conn),
            seq: request.seq,
            query: request.query,
            version: request.version,
            line_no: request.line_no,
            render: true,
            // The budget started at admission: queueing, batching, and
            // failover all spend from it.
            deadline: request.deadline,
            attempts: 0,
            token: mix(conn.id).wrapping_add(request.seq),
            submitted: request.submitted,
        };
        match shed {
            Some(msg) => deliver_refusal(&pending, msg.to_string()),
            None => self.core.dispatch(pending),
        }
    }

    fn draining(&self) -> bool {
        self.core.draining.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parspeed_engine::{ArchKind, EvalValue, Request};

    fn optimize(n: usize) -> Query {
        Request::optimize(ArchKind::SyncBus, n).procs(64).query()
    }

    #[test]
    fn round_trip_through_the_fleet_matches_the_engine() {
        let router = Router::start(RouterConfig { shards: 3, ..RouterConfig::default() });
        let client = router.client();
        match client.call(optimize(256)) {
            Response::Single(Ok(EvalValue::Optimum { processors, .. })) => {
                assert_eq!(processors, 14) // the paper's §6.1 anchor
            }
            other => panic!("unexpected {other:?}"),
        }
        let stats = router.shutdown();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.iter().map(|(_, s)| s.completed).sum::<u64>(), 1);
    }

    #[test]
    fn topology_wire_shape_is_frozen() {
        let router = Router::start(RouterConfig { shards: 2, ..RouterConfig::default() });
        let client = router.client();
        client.call(optimize(256));
        let json = router.topology();
        // The shape contract wire clients depend on: field order included.
        let jsonl::Json::Obj(fields) = &json else { panic!("topology is not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["version", "op", "shards", "replicas", "members", "lost", "resident"]);
        let rendered = json.render();
        assert!(rendered.starts_with(r#"{"version":2,"op":"topology","shards":2,"#), "{rendered}");
        assert!(rendered.contains(r#""members":[0,1],"lost":[]"#), "{rendered}");
        // One query was cached somewhere in the fleet.
        let total: usize = router.resident_keys().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 1);
        router.shutdown();
    }

    #[test]
    fn router_metrics_reports_resilience_and_breakers() {
        let router = Router::start(RouterConfig { shards: 2, ..RouterConfig::default() });
        let json = router.metrics();
        let jsonl::Json::Obj(fields) = &json else { panic!("metrics is not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["version", "op", "scope", "resilience", "breakers"]);
        let rendered = json.render();
        assert!(rendered.contains(r#""scope":"router""#), "{rendered}");
        assert!(rendered.contains(r#""retries":0"#), "{rendered}");
        assert!(rendered.contains(r#"{"shard":0,"state":"closed"}"#), "{rendered}");
        router.kill_shard(1);
        let rendered = router.metrics().render();
        assert!(rendered.contains(r#"{"shard":1,"state":"lost"}"#), "{rendered}");
        router.shutdown();
    }

    #[test]
    fn submissions_while_draining_get_the_refusal_in_slot() {
        let router = Router::start(RouterConfig { shards: 2, ..RouterConfig::default() });
        let client = router.client();
        client.call(optimize(128));
        router.shutdown();
        match client.call(optimize(256)) {
            Response::Invalid(e) => {
                assert_eq!(e.kind(), "overloaded");
                assert!(e.to_string().contains("draining"), "{e}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
