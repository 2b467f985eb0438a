//! The versioned service surface: one typed request/response envelope
//! covering every capability of the workspace.
//!
//! A [`Request`] is a wire-versioned batch of [`Query`]s; a [`Service`]
//! turns it into a [`ServiceReply`] whose responses line up with the
//! request's queries in order. [`Engine`] is the canonical implementation:
//! every query — analytic point queries, macro-queries, event-level
//! simulations, real numerical solves, wall-clock measurements, experiment
//! regenerations — goes through the same plan → dedup → cache → parallel
//! execute pipeline, so there is no longer a fast path and a slow path
//! into the models, just *the* path.
//!
//! Requests are built either directly (`Request::new(queries)`) or through
//! the builder-style constructors, which mirror the CLI's defaults:
//!
//! ```
//! use parspeed_engine::{ArchKind, Engine, EvalValue, Request, Response, Service};
//!
//! let engine = Engine::builder().build();
//! let request = Request::optimize(ArchKind::SyncBus, 256).procs(64).build();
//! let reply = engine.call(&request).unwrap();
//! match &reply.responses[0] {
//!     Response::Single(Ok(EvalValue::Optimum { processors, .. })) => {
//!         assert_eq!(*processors, 14); // the paper's §6.1 anchor
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```
//!
//! # Versioning
//!
//! The envelope carries an explicit `version`. [`WIRE_VERSION`] (2) is
//! current; version 1 — the PR-1 era implicit schema — is still accepted,
//! and the reply's `deprecation` field says so. Versions above 2 are
//! refused with [`ParspeedError::Unsupported`].

use crate::error::ParspeedError;
use crate::request::{
    ArchKind, CheckSpec, Lever, MachineSpec, MinSizeVariant, Query, ShapeKey, SimArchKind,
    SolverKind, StencilSpec, WorkloadSpec,
};
use crate::telemetry::BatchTelemetry;
use crate::{Engine, Response};
use std::sync::Arc;

/// The current wire/envelope schema version.
pub const WIRE_VERSION: u32 = 2;

/// The oldest version still accepted (with a deprecation note).
pub const MIN_WIRE_VERSION: u32 = 1;

/// A versioned batch of queries — the one request shape every capability
/// goes through.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Envelope schema version (see [`WIRE_VERSION`]).
    pub version: u32,
    /// The queries, answered in order.
    pub queries: Vec<Query>,
}

impl Request {
    /// A current-version request over a batch of queries.
    pub fn new(queries: Vec<Query>) -> Self {
        Request { version: WIRE_VERSION, queries }
    }

    /// A current-version request over one query.
    pub fn single(query: Query) -> Self {
        Request::new(vec![query])
    }

    /// The same request re-stamped with another version (for talking to a
    /// service on an older schema, or testing version handling).
    pub fn with_version(mut self, version: u32) -> Self {
        self.version = version;
        self
    }

    /// Builder: optimal processor count and speedup for one instance.
    pub fn optimize(arch: ArchKind, n: usize) -> OptimizeBuilder {
        OptimizeBuilder {
            arch,
            machine: MachineSpec::default(),
            n,
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Square,
            procs: None,
            memory_words: None,
        }
    }

    /// Builder: smallest gainful grid for a full machine (Fig. 7).
    pub fn minsize(variant: MinSizeVariant, procs: usize) -> MinSizeBuilder {
        MinSizeBuilder { variant, machine: MachineSpec::default(), e: 6.0, k: 1.0, procs }
    }

    /// Builder: smallest grid reaching a target efficiency.
    pub fn isoeff(arch: ArchKind, procs: usize, efficiency: f64) -> IsoeffBuilder {
        IsoeffBuilder {
            arch,
            machine: MachineSpec::default(),
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Square,
            procs,
            efficiency,
        }
    }

    /// Builder: what a hardware upgrade buys (§6.1).
    pub fn leverage(lever: Lever, factor: f64, n: usize) -> LeverageBuilder {
        LeverageBuilder {
            machine: MachineSpec::default(),
            n,
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Square,
            procs: None,
            lever,
            factor,
        }
    }

    /// Builder: the paper's closing Table I at one grid size.
    pub fn table1(n: usize) -> Table1Builder {
        Table1Builder { machine: MachineSpec::default(), n, stencil: StencilSpec::FivePoint }
    }

    /// Builder: every architecture side by side on one instance.
    pub fn compare(n: usize) -> CompareBuilder {
        CompareBuilder {
            machine: MachineSpec::default(),
            n,
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Square,
            procs: None,
        }
    }

    /// Builder: one event-level iteration beside the closed form.
    pub fn simulate(arch: SimArchKind, n: usize, procs: usize) -> SimulateBuilder {
        SimulateBuilder {
            arch,
            machine: MachineSpec::default(),
            n,
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Strip,
            procs,
        }
    }

    /// Builder: actually solve the manufactured Poisson problem.
    pub fn solve(n: usize) -> SolveBuilder {
        SolveBuilder {
            n,
            solver: SolverKind::Jacobi,
            tol: 1e-8,
            stencil: StencilSpec::FivePoint,
            partitions: 4,
            max_iters: 200_000,
            check: None,
        }
    }

    /// Builder: time the real partitioned executor across thread counts.
    pub fn threads(n: usize) -> ThreadsBuilder {
        ThreadsBuilder {
            n,
            stencil: StencilSpec::FivePoint,
            shape: ShapeKey::Strip,
            threads: vec![1, 2, 4, 8],
            iters: 20,
            repeats: 3,
        }
    }

    /// Builder: a grid of optimize queries with doubling sides.
    pub fn sweep(n_from: usize, n_to: usize) -> SweepBuilder {
        SweepBuilder {
            archs: vec![ArchKind::SyncBus],
            machine: MachineSpec::default(),
            stencils: vec![StencilSpec::FivePoint],
            shapes: vec![ShapeKey::Square],
            budgets: vec![None],
            n_from,
            n_to,
        }
    }

    /// Builder: regenerate a reproduction experiment.
    pub fn experiment(id: impl Into<String>) -> ExperimentBuilder {
        ExperimentBuilder { id: id.into(), quick: false }
    }
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, $name: $ty) -> Self {
            self.$name = $name;
            self
        }
    };
}

macro_rules! finishers {
    () => {
        /// Wraps the built query in a single-query current-version
        /// [`Request`].
        pub fn build(self) -> Request {
            Request::single(self.query())
        }
    };
}

/// Builds a [`Query::Optimize`].
#[derive(Debug, Clone, Copy)]
pub struct OptimizeBuilder {
    arch: ArchKind,
    machine: MachineSpec,
    n: usize,
    stencil: StencilSpec,
    shape: ShapeKey,
    procs: Option<usize>,
    memory_words: Option<f64>,
}

impl OptimizeBuilder {
    setter!(/// Machine description (preset plus overrides).
        machine: MachineSpec);
    setter!(/// Stencil (named or custom constants). Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default square.
        shape: ShapeKey);

    /// Caps the machine at `procs` processors (default: unlimited).
    pub fn procs(mut self, procs: usize) -> Self {
        self.procs = Some(procs);
        self
    }

    /// Adds a per-processor memory budget in words (fractional budgets
    /// are legal — the model is continuous).
    pub fn memory_words(mut self, words: f64) -> Self {
        self.memory_words = Some(words);
        self
    }

    /// The built query.
    pub fn query(self) -> Query {
        Query::Optimize {
            arch: self.arch,
            machine: self.machine,
            workload: WorkloadSpec { n: self.n, stencil: self.stencil, shape: self.shape },
            procs: self.procs,
            memory_words: self.memory_words,
        }
    }

    finishers!();
}

/// Builds a [`Query::MinSize`].
#[derive(Debug, Clone, Copy)]
pub struct MinSizeBuilder {
    variant: MinSizeVariant,
    machine: MachineSpec,
    e: f64,
    k: f64,
    procs: usize,
}

impl MinSizeBuilder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// `E(S)` constant. Default 6.0 (5-point).
        e: f64);
    setter!(/// `k(P,S)` constant (continuous). Default 1.0.
        k: f64);

    /// The built query.
    pub fn query(self) -> Query {
        Query::MinSize {
            variant: self.variant,
            machine: self.machine,
            e: self.e,
            k: self.k,
            procs: self.procs,
        }
    }

    finishers!();
}

/// Builds a [`Query::Isoefficiency`].
#[derive(Debug, Clone, Copy)]
pub struct IsoeffBuilder {
    arch: ArchKind,
    machine: MachineSpec,
    stencil: StencilSpec,
    shape: ShapeKey,
    procs: usize,
    efficiency: f64,
}

impl IsoeffBuilder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// Stencil. Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default square.
        shape: ShapeKey);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Isoefficiency {
            arch: self.arch,
            machine: self.machine,
            stencil: self.stencil,
            shape: self.shape,
            procs: self.procs,
            efficiency: self.efficiency,
        }
    }

    finishers!();
}

/// Builds a [`Query::Leverage`].
#[derive(Debug, Clone, Copy)]
pub struct LeverageBuilder {
    machine: MachineSpec,
    n: usize,
    stencil: StencilSpec,
    shape: ShapeKey,
    procs: Option<usize>,
    lever: Lever,
    factor: f64,
}

impl LeverageBuilder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// Stencil. Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default square.
        shape: ShapeKey);

    /// Caps the machine at `procs` processors (default: unlimited).
    pub fn procs(mut self, procs: usize) -> Self {
        self.procs = Some(procs);
        self
    }

    /// The built query.
    pub fn query(self) -> Query {
        Query::Leverage {
            machine: self.machine,
            workload: WorkloadSpec { n: self.n, stencil: self.stencil, shape: self.shape },
            procs: self.procs,
            lever: self.lever,
            factor: self.factor,
        }
    }

    finishers!();
}

/// Builds a [`Query::Table1`].
#[derive(Debug, Clone, Copy)]
pub struct Table1Builder {
    machine: MachineSpec,
    n: usize,
    stencil: StencilSpec,
}

impl Table1Builder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// Stencil (catalog only). Default 5-point.
        stencil: StencilSpec);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Table1 { machine: self.machine, n: self.n, stencil: self.stencil }
    }

    finishers!();
}

/// Builds a [`Query::Compare`].
#[derive(Debug, Clone, Copy)]
pub struct CompareBuilder {
    machine: MachineSpec,
    n: usize,
    stencil: StencilSpec,
    shape: ShapeKey,
    procs: Option<usize>,
}

impl CompareBuilder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// Stencil. Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default square.
        shape: ShapeKey);

    /// Caps every architecture at `procs` processors (default: unlimited).
    pub fn procs(mut self, procs: usize) -> Self {
        self.procs = Some(procs);
        self
    }

    /// The built query.
    pub fn query(self) -> Query {
        Query::Compare {
            machine: self.machine,
            workload: WorkloadSpec { n: self.n, stencil: self.stencil, shape: self.shape },
            procs: self.procs,
        }
    }

    finishers!();
}

/// Builds a [`Query::Simulate`].
#[derive(Debug, Clone, Copy)]
pub struct SimulateBuilder {
    arch: SimArchKind,
    machine: MachineSpec,
    n: usize,
    stencil: StencilSpec,
    shape: ShapeKey,
    procs: usize,
}

impl SimulateBuilder {
    setter!(/// Machine description.
        machine: MachineSpec);
    setter!(/// Stencil (catalog only). Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default strip.
        shape: ShapeKey);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Simulate {
            arch: self.arch,
            machine: self.machine,
            workload: WorkloadSpec { n: self.n, stencil: self.stencil, shape: self.shape },
            procs: self.procs,
        }
    }

    finishers!();
}

/// Builds a [`Query::Solve`].
#[derive(Debug, Clone, Copy)]
pub struct SolveBuilder {
    n: usize,
    solver: SolverKind,
    tol: f64,
    stencil: StencilSpec,
    partitions: usize,
    max_iters: usize,
    check: Option<CheckSpec>,
}

impl SolveBuilder {
    setter!(/// Which solver. Default Jacobi.
        solver: SolverKind);
    setter!(/// Convergence tolerance. Default 1e-8.
        tol: f64);
    setter!(/// Stencil (catalog only). Default 5-point.
        stencil: StencilSpec);
    setter!(/// Strip count for the parallel solver. Default 4.
        partitions: usize);
    setter!(/// Iteration cap. Default 200 000.
        max_iters: usize);

    /// Convergence-check schedule (wire field `check_policy`). Default:
    /// unset, i.e. the solver's historical behaviour — `every:1` for the
    /// sequential solvers, `geometric` for the parallel executor. Sparse
    /// schedules also widen the communication-avoiding blocks: temporal
    /// tiling in the sequential Jacobi path, deep-halo sub-iteration
    /// blocks in the partitioned one. Spelling out a solver's own default
    /// is canonicalized back to unset, so both forms share a cache line.
    pub fn check_policy(mut self, check: CheckSpec) -> Self {
        self.check = Some(check);
        self
    }

    /// The built query.
    pub fn query(self) -> Query {
        Query::Solve {
            n: self.n,
            solver: self.solver,
            tol: self.tol,
            stencil: self.stencil,
            partitions: self.partitions,
            max_iters: self.max_iters,
            check: self.check,
        }
    }

    finishers!();
}

/// Builds a [`Query::Threads`].
#[derive(Debug, Clone)]
pub struct ThreadsBuilder {
    n: usize,
    stencil: StencilSpec,
    shape: ShapeKey,
    threads: Vec<usize>,
    iters: usize,
    repeats: usize,
}

impl ThreadsBuilder {
    setter!(/// Stencil (catalog only). Default 5-point.
        stencil: StencilSpec);
    setter!(/// Partition shape. Default strip.
        shape: ShapeKey);
    setter!(/// Thread counts to measure. Default `[1, 2, 4, 8]`.
        threads: Vec<usize>);
    setter!(/// Timed iterations per measurement. Default 20.
        iters: usize);
    setter!(/// Best-of repetitions. Default 3.
        repeats: usize);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Threads {
            n: self.n,
            stencil: self.stencil,
            shape: self.shape,
            threads: self.threads,
            iters: self.iters,
            repeats: self.repeats,
        }
    }

    finishers!();
}

/// Builds a [`Query::Sweep`].
#[derive(Debug, Clone)]
pub struct SweepBuilder {
    archs: Vec<ArchKind>,
    machine: MachineSpec,
    stencils: Vec<StencilSpec>,
    shapes: Vec<ShapeKey>,
    budgets: Vec<Option<usize>>,
    n_from: usize,
    n_to: usize,
}

impl SweepBuilder {
    setter!(/// Architectures to sweep. Default `[SyncBus]`.
        archs: Vec<ArchKind>);
    setter!(/// Machine description (shared by the whole sweep).
        machine: MachineSpec);
    setter!(/// Stencils. Default `[FivePoint]`.
        stencils: Vec<StencilSpec>);
    setter!(/// Shapes. Default `[Square]`.
        shapes: Vec<ShapeKey>);
    setter!(/// Budgets (`None` = unlimited). Default `[None]`.
        budgets: Vec<Option<usize>>);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Sweep {
            archs: self.archs,
            machine: self.machine,
            stencils: self.stencils,
            shapes: self.shapes,
            budgets: self.budgets,
            n_from: self.n_from,
            n_to: self.n_to,
        }
    }

    finishers!();
}

/// Builds a [`Query::Experiment`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    id: String,
    quick: bool,
}

impl ExperimentBuilder {
    setter!(/// Trim the sweeps. Default false.
        quick: bool);

    /// The built query.
    pub fn query(self) -> Query {
        Query::Experiment { id: self.id, quick: self.quick }
    }

    finishers!();
}

/// A service's answer: responses in request order plus batch telemetry.
#[derive(Debug, Clone)]
pub struct ServiceReply {
    /// The schema version the service speaks (always [`WIRE_VERSION`]).
    pub version: u32,
    /// Present when the request used a deprecated (but accepted) version.
    pub deprecation: Option<String>,
    /// One response per request query, in request order.
    pub responses: Vec<Response>,
    /// What the pipeline did.
    pub telemetry: BatchTelemetry,
}

/// The slot address of one query inside a multi-client batch: which
/// client submitted it and where it sits in that client's submission
/// order. Concurrent frontends (the `parspeed-server` micro-batcher) tag
/// every query with one of these before coalescing traffic from many
/// connections into a single engine batch, so each reply can be routed
/// back to exactly the slot that asked for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotAddr {
    /// The submitting client/connection, by frontend-assigned id.
    pub client: u64,
    /// The query's 0-based sequence number within that client's stream.
    pub seq: u64,
}

/// A batch of pre-tagged queries from (potentially) many clients — the
/// input shape of [`Service::call_tagged`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedRequest {
    /// Envelope schema version (see [`WIRE_VERSION`]).
    pub version: u32,
    /// The tagged queries, answered in order.
    pub queries: Vec<(SlotAddr, Query)>,
}

impl TaggedRequest {
    /// A current-version tagged batch.
    pub fn new(queries: Vec<(SlotAddr, Query)>) -> Self {
        TaggedRequest { version: WIRE_VERSION, queries }
    }
}

/// A service's answer to a [`TaggedRequest`]: slot-addressed replies in
/// request order plus the batch telemetry.
#[derive(Debug, Clone)]
pub struct TaggedReply {
    /// One `(slot, response)` pair per tagged query, in request order —
    /// each response carries the exact tag its query arrived with.
    pub replies: Vec<(SlotAddr, Response)>,
    /// Present when the request used a deprecated (but accepted) version.
    pub deprecation: Option<String>,
    /// What the pipeline did for the whole coalesced batch.
    pub telemetry: BatchTelemetry,
}

/// Anything that can answer a [`Request`]. [`Engine`] is the canonical
/// implementation; wrap it to add authentication, rate limiting, remoting —
/// the envelope stays the same.
pub trait Service {
    /// Answers every query of the request, in order. `Err` is reserved for
    /// envelope-level failures (unsupported version); per-query failures
    /// come back as [`Response::Invalid`] or error outcomes in their own
    /// slots.
    fn call(&self, request: &Request) -> Result<ServiceReply, ParspeedError>;

    /// Answers a pre-tagged multi-client batch with slot-addressed
    /// replies. This is the entry point concurrent frontends funnel
    /// coalesced cross-client traffic through: the queries run as *one*
    /// batch (so dedup and the result cache amortize across clients), and
    /// every response comes back paired with the [`SlotAddr`] its query
    /// arrived with, in request order. The default implementation
    /// delegates to [`Service::call`], so every service gets slot
    /// addressing for free.
    fn call_tagged(&self, request: &TaggedRequest) -> Result<TaggedReply, ParspeedError> {
        let queries: Vec<Query> = request.queries.iter().map(|(_, q)| q.clone()).collect();
        let reply = self.call(&Request { version: request.version, queries })?;
        debug_assert_eq!(reply.responses.len(), request.queries.len());
        let replies = request.queries.iter().map(|(slot, _)| *slot).zip(reply.responses).collect();
        Ok(TaggedReply { replies, deprecation: reply.deprecation, telemetry: reply.telemetry })
    }

    /// Installs a per-stage latency [`Recorder`](crate::Recorder) —
    /// how a serving layer asks the service to attribute
    /// plan/dedup/cache/exec time without the engine depending on the
    /// server. The default is a no-op (most services have nothing to
    /// attribute); [`Engine`] stores the recorder and reports through
    /// it on every subsequent batch.
    fn install_recorder(&self, _recorder: Arc<dyn crate::Recorder>) {}

    /// True when `query` would be answered entirely from warm state (for
    /// [`Engine`], the result cache) without fresh evaluation. Serving
    /// layers use this as the brownout probe: under pressure they keep
    /// answering warm queries and shed cold ones as `overloaded`. Must
    /// be cheap and side-effect free — it runs on the admission path.
    /// The default says nothing is warm, which degrades brownout to
    /// plain shedding.
    fn probe_cached(&self, _query: &Query) -> bool {
        false
    }
}

impl Service for Engine {
    fn call(&self, request: &Request) -> Result<ServiceReply, ParspeedError> {
        let deprecation = match request.version {
            WIRE_VERSION => None,
            MIN_WIRE_VERSION => Some(format!(
                "request used deprecated wire v{MIN_WIRE_VERSION}; migrate to v{WIRE_VERSION}"
            )),
            v => {
                return Err(ParspeedError::unsupported(format!(
                    "unsupported request version {v}; this service speaks v{WIRE_VERSION} \
                     (v{MIN_WIRE_VERSION} still accepted)"
                )))
            }
        };
        let out = self.run_batch(&request.queries);
        Ok(ServiceReply {
            version: WIRE_VERSION,
            deprecation,
            responses: out.responses,
            telemetry: out.telemetry,
        })
    }

    fn install_recorder(&self, recorder: Arc<dyn crate::Recorder>) {
        self.set_recorder(Some(recorder));
    }

    fn probe_cached(&self, query: &Query) -> bool {
        self.is_cached(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::EvalValue;

    #[test]
    fn builders_fill_cli_defaults() {
        let q = Request::optimize(ArchKind::SyncBus, 256).query();
        match q {
            Query::Optimize { workload, procs, memory_words, .. } => {
                assert_eq!(workload.n, 256);
                assert_eq!(workload.stencil, StencilSpec::FivePoint);
                assert_eq!(workload.shape, ShapeKey::Square);
                assert_eq!(procs, None);
                assert_eq!(memory_words, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        let q = Request::solve(63).solver(SolverKind::Multigrid).query();
        match q {
            Query::Solve { tol, partitions, max_iters, .. } => {
                assert_eq!(tol, 1e-8);
                assert_eq!(partitions, 4);
                assert_eq!(max_iters, 200_000);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn engine_serves_a_builder_request() {
        let engine = Engine::builder().build();
        let reply =
            engine.call(&Request::optimize(ArchKind::SyncBus, 256).procs(64).build()).unwrap();
        assert_eq!(reply.version, WIRE_VERSION);
        assert!(reply.deprecation.is_none());
        match &reply.responses[0] {
            Response::Single(Ok(EvalValue::Optimum { processors, .. })) => {
                assert_eq!(*processors, 14);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn v1_is_accepted_with_a_deprecation_note() {
        let engine = Engine::builder().build();
        let req = Request::table1(256).build().with_version(1);
        let reply = engine.call(&req).unwrap();
        assert!(reply.deprecation.as_deref().unwrap().contains("deprecated"));
        assert!(matches!(&reply.responses[0], Response::Single(Ok(EvalValue::Table1 { .. }))));
    }

    #[test]
    fn future_versions_are_refused() {
        let engine = Engine::builder().build();
        let req = Request::table1(256).build().with_version(3);
        let err = engine.call(&req).unwrap_err();
        assert_eq!(err.kind(), "unsupported");
        assert!(err.to_string().contains("version 3"));
    }

    #[test]
    fn tagged_batches_return_slot_addressed_replies() {
        let engine = Engine::builder().build();
        // Interleaved clients with non-monotonic tags: each reply must
        // carry its own tag and answer its own query, in request order.
        let tagged: Vec<(SlotAddr, Query)> = vec![
            (SlotAddr { client: 2, seq: 0 }, Request::optimize(ArchKind::SyncBus, 256).query()),
            (SlotAddr { client: 0, seq: 7 }, Request::table1(512).query()),
            (SlotAddr { client: 2, seq: 1 }, Request::optimize(ArchKind::SyncBus, 256).query()),
            (SlotAddr { client: 1, seq: 3 }, Request::compare(128).query()),
        ];
        let reply = engine.call_tagged(&TaggedRequest::new(tagged.clone())).unwrap();
        assert_eq!(reply.replies.len(), 4);
        for ((slot, _), (got_slot, _)) in tagged.iter().zip(&reply.replies) {
            assert_eq!(slot, got_slot);
        }
        // The two duplicated optimize slots coalesced onto one evaluation
        // and answer identically.
        assert_eq!(reply.replies[0].1, reply.replies[2].1);
        assert_eq!(reply.telemetry.unique, reply.telemetry.atoms - 1);
        assert!(reply.deprecation.is_none());
    }

    #[test]
    fn tagged_batches_respect_the_version_gate() {
        let engine = Engine::builder().build();
        let mut req = TaggedRequest::new(vec![(
            SlotAddr { client: 0, seq: 0 },
            Request::table1(256).query(),
        )]);
        req.version = 3;
        assert_eq!(engine.call_tagged(&req).unwrap_err().kind(), "unsupported");
    }

    #[test]
    fn mixed_kind_requests_answer_in_order() {
        let engine = Engine::builder().build();
        let req = Request::new(vec![
            Request::table1(512).query(),
            Request::compare(128).query(),
            Request::minsize(MinSizeVariant::SyncSquare, 14).query(),
        ]);
        let reply = engine.call(&req).unwrap();
        assert!(matches!(&reply.responses[0], Response::Single(Ok(EvalValue::Table1 { .. }))));
        assert!(matches!(&reply.responses[1], Response::Sweep(points) if points.len() == 6));
        assert!(matches!(&reply.responses[2], Response::Single(Ok(EvalValue::MinSize { .. }))));
    }
}
