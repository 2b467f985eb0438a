//! Shared-memory partitioned parallel runtime.
//!
//! This crate is the workspace's real-threads testbed: it executes the
//! exact computation the paper models — per-partition Jacobi sweeps with
//! explicit halo exchange between partitions — on the host CPU with
//! scoped threads ([`parspeed_grid::par`]), emulating the paper's distributed-memory discipline in shared memory
//! (each partition owns local grids; neighbours' boundary values arrive by
//! explicit copies, never by aliased reads).
//!
//! * [`PartitionedJacobi`] — the partitioned executor; bit-identical to the
//!   sequential solver, since Jacobi updates read only previous-iteration
//!   values. Built [`PartitionedJacobi::with_depth`], it exchanges a deep
//!   halo once and runs a whole block of local sub-iterations before the
//!   next exchange — the communication-avoiding schedule that divides halo
//!   traffic per iteration by the block size;
//! * [`CheckPolicy`] — fixed convergence-check schedules (§4, after Saltz,
//!   Naik & Nicol \[13\]), re-exported from `parspeed-solver`, which owns
//!   the type so the sequential solvers schedule with it too;
//! * [`AdaptiveChecker`] — the rate-estimating schedule of \[13\] itself:
//!   observed differences predict the convergence iteration and checks
//!   cluster there;
//! * [`measure`] — wall-clock cycle-time measurement across thread counts,
//!   used by the `validate_threads` experiment (E14).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod measure;
mod partitioned;

pub use adaptive::{AdaptiveChecker, CheckScheduler};
pub use parspeed_solver::CheckPolicy;
pub use partitioned::{PartitionedJacobi, SolveRun};
