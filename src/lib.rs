//! # parspeed — Problem Size, Parallel Architecture, and Optimal Speedup
//!
//! A production-quality Rust reproduction of Nicol & Willard's 1987 ICPP /
//! ICASE study of optimal processor allocation for parallel elliptic-PDE
//! solvers. This facade crate re-exports the whole workspace; see the
//! individual crates for details:
//!
//! * [`stencil`] — discretization stencils, `E(S)` and `k(P,S)`,
//! * [`grid`] — grid storage and domain decomposition (strips, legal and
//!   working rectangles),
//! * [`model`] — the analytic cycle-time model and optimal-speedup analysis
//!   (the paper's contribution; crate `parspeed-core`),
//! * [`desim`] — deterministic discrete-event simulation kernel,
//! * [`arch`] — event-driven simulators of the paper's machine classes
//!   (hypercube, mesh, synchronous/asynchronous bus, banyan network),
//! * [`solver`] — real numerical solvers (Jacobi, SOR, red-black, CG),
//! * [`exec`] — shared-memory partitioned parallel runtime (scoped threads) used to
//!   validate the model on the host machine,
//! * [`engine`] — the versioned service surface: a batched, cached,
//!   parallel query engine covering every capability (analytic queries,
//!   event-level simulations, real solves, measurements), bit-identical
//!   to direct calls into the crates above.
//!
//! A command-line interface to all of it ships as the `parspeed` binary
//! (crate `parspeed-cli`) — every one of its commands routes through the
//! engine's `Service` — and `parspeed-bench` regenerates every table and
//! figure in the paper (see `EXPERIMENTS.md`).
//!
//! # Quickstart
//!
//! ```
//! use parspeed::prelude::*;
//!
//! // A 256×256 grid, 5-point stencil, square partitions, on the paper's
//! // calibrated synchronous-bus machine: the optimum uses ~14 processors.
//! let machine = MachineParams::paper_defaults();
//! let w = Workload::new(256, &Stencil::five_point(), PartitionShape::Square);
//! let opt = SyncBus::new(&machine).optimize(&w, ProcessorBudget::Unlimited);
//! assert!((13..=15).contains(&opt.processors));
//! assert!(opt.speedup > 1.0);
//! ```
//!
//! The same question through the service surface — planned, deduplicated,
//! and cached, with builder-style request construction:
//!
//! ```
//! use parspeed::prelude::*;
//!
//! let engine = Engine::builder().build();
//! let reply = engine
//!     .call(&Request::optimize(ArchKind::SyncBus, 256).procs(64).build())
//!     .unwrap();
//! match &reply.responses[0] {
//!     Response::Single(Ok(EvalValue::Optimum { processors, .. })) => {
//!         assert_eq!(*processors, 14);
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use parspeed_arch as arch;
pub use parspeed_core as model;
pub use parspeed_desim as desim;
pub use parspeed_engine as engine;
pub use parspeed_exec as exec;
pub use parspeed_grid as grid;
pub use parspeed_solver as solver;
pub use parspeed_stencil as stencil;

/// Convenient glob-import of the most used types across the workspace.
pub mod prelude {
    pub use parspeed_core::{
        ArchModel, AsyncBus, Banyan, BusParams, Hypercube, HypercubeParams, Infeasible,
        MachineParams, MemoryBudget, Mesh, Optimum, ProcessorBudget, ScheduledBus, SwitchParams,
        SyncBus, Workload,
    };
    pub use parspeed_engine::{
        ArchKind, BatchTelemetry, Engine, EngineBuilder, EvalOutcome, EvalValue, MachineSpec,
        ParspeedError, Query, Request, Response, Service, ServiceReply, ShapeKey, SimArchKind,
        SolverKind, StencilSpec, WorkloadSpec, WIRE_VERSION,
    };
    pub use parspeed_grid::{Grid2D, RectDecomposition, StripDecomposition, WorkingRectangles};
    pub use parspeed_solver::{JacobiSolver, PoissonProblem, SolveStatus};
    pub use parspeed_stencil::{PartitionShape, Stencil};
}
