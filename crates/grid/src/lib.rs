//! Grid storage and domain decomposition for the Nicol & Willard (1987)
//! reproduction.
//!
//! The paper discretizes a square domain into an `n×n` grid of points which
//! is decomposed into *partitions* mapped one-per-processor (§3). This crate
//! provides:
//!
//! * [`Grid2D`] — flat, halo-padded storage for grid functions,
//! * [`Region`] — half-open rectangular index regions and their geometry,
//! * [`StripDecomposition`] — full-width row strips with the paper's
//!   remainder rule ("if `n = k·P + r` then `r` processors receive `k+1`
//!   contiguous rows, and the remaining processors each receive `k`"),
//! * [`RectDecomposition`] — the paper's *legal rectangles*: strips cut by a
//!   column border every `m`-th column where `m` divides `n` (Fig. 5),
//! * [`WorkingRectangles`] — the paper's square-approximation machinery: per
//!   area, the minimum-perimeter legal rectangle, retained only if its
//!   perimeter is within 5% of the perimeter of the true square (Fig. 6),
//! * [`halo`] — exact halo-exchange plans for a decomposition and stencil,
//!   including the deep (depth-`k`) plans of the communication-avoiding
//!   executor,
//! * [`band`] — trapezoidal band traversals for temporal tiling
//!   (block-of-k sweeps over cache-resident row bands),
//! * [`maxnorm`] — the lane-split max-norm fold every convergence check
//!   and error norm shares,
//! * [`par`] — the scoped fan-out every parallel loop runs on, with an
//!   explicit thread count per call,
//! * [`cover`] — exact-cover verification used by tests and debug builds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod band;
pub mod cover;
mod geometry;
mod grid2d;
pub mod halo;
pub mod maxnorm;
pub mod par;
mod rect;
mod strip;
mod working;

pub use band::{BandSchedule, BandStep};
pub use geometry::{BoundaryWords, Region};
pub use grid2d::Grid2D;
pub use rect::RectDecomposition;
pub use strip::StripDecomposition;
pub use working::{WorkingRect, WorkingRectangles};

/// A decomposition of the `n×n` domain into disjoint rectangular partitions
/// that exactly cover it.
pub trait Decomposition {
    /// Side length `n` of the square domain.
    fn domain(&self) -> usize;

    /// Number of partitions (= processors used).
    fn count(&self) -> usize;

    /// The `i`-th partition's region, `i < count()`.
    fn region(&self, i: usize) -> Region;

    /// All regions in partition order.
    fn regions(&self) -> Vec<Region> {
        (0..self.count()).map(|i| self.region(i)).collect()
    }

    /// Largest partition area — the paper's `A` for load-imbalance-aware
    /// cycle times (the slowest processor paces an iteration).
    fn max_area(&self) -> usize {
        (0..self.count()).map(|i| self.region(i).area()).max().unwrap_or(0)
    }

    /// Smallest partition area.
    fn min_area(&self) -> usize {
        (0..self.count()).map(|i| self.region(i).area()).min().unwrap_or(0)
    }
}
