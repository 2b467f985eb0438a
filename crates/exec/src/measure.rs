//! Wall-clock cycle-time measurement on the host machine (experiment E14).
//!
//! Runs the partitioned executor at varying thread counts and
//! times real iterations. The host's memory system is not a 1987 shared
//! bus, so these measurements validate the model's *shape* claims —
//! speedup saturates, strips versus squares ordering, per-iteration cost
//! linear in the partition area — rather than its constants.

use crate::PartitionedJacobi;
use parspeed_grid::{Decomposition, RectDecomposition, StripDecomposition};
use parspeed_solver::PoissonProblem;
use parspeed_stencil::{PartitionShape, Stencil};
use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredPoint {
    /// Threads the executor fans out over (= partitions).
    pub threads: usize,
    /// Partition shape used.
    pub shape: PartitionShape,
    /// Best observed seconds per iteration.
    pub secs_per_iter: f64,
    /// Speedup against the 1-thread measurement in the same sweep
    /// (filled by [`measure_scaling`]; `1.0` for the baseline row).
    pub speedup: f64,
}

/// Builds the decomposition for `p` partitions of the given shape
/// (strips, or the most-square legal rectangle grid for squares).
pub fn decompose(
    n: usize,
    p: usize,
    shape: PartitionShape,
) -> Box<dyn Decomposition + Send + Sync> {
    match shape {
        PartitionShape::Strip => {
            Box::new(StripDecomposition::new(n, p.min(n))) as Box<dyn Decomposition + Send + Sync>
        }
        PartitionShape::Square => Box::new(
            RectDecomposition::near_square(n, p)
                .unwrap_or_else(|| RectDecomposition::new(n, p.min(n), 1)),
        ),
    }
}

/// Times `iters` iterations of the partitioned executor with `threads`
/// partitions on as many threads, repeated `repeats` times; returns the
/// best per-iteration time (minimum is the standard noise-resistant
/// estimator for this kind of measurement).
pub fn time_iterations(
    problem: &PoissonProblem,
    stencil: &Stencil,
    shape: PartitionShape,
    threads: usize,
    iters: usize,
    repeats: usize,
) -> f64 {
    assert!(threads >= 1 && iters >= 1 && repeats >= 1);
    let decomp = decompose(problem.n(), threads, shape);
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let mut exec = PartitionedJacobi::new(problem, stencil, decomp.as_ref()).threads(threads);
        // Warm the caches with one untimed iteration.
        exec.iterate(false);
        let t0 = Instant::now();
        for _ in 0..iters {
            exec.iterate(false);
        }
        let dt = t0.elapsed().as_secs_f64() / iters as f64;
        best = best.min(dt);
    }
    best
}

/// Measures the scaling curve over `thread_counts`, normalizing speedup to
/// the first entry.
pub fn measure_scaling(
    problem: &PoissonProblem,
    stencil: &Stencil,
    shape: PartitionShape,
    thread_counts: &[usize],
    iters: usize,
    repeats: usize,
) -> Vec<MeasuredPoint> {
    assert!(!thread_counts.is_empty());
    let mut out = Vec::with_capacity(thread_counts.len());
    for &t in thread_counts {
        let secs = time_iterations(problem, stencil, shape, t, iters, repeats);
        out.push(MeasuredPoint { threads: t, shape, secs_per_iter: secs, speedup: 1.0 });
    }
    let base = out[0].secs_per_iter;
    for p in &mut out {
        p.speedup = base / p.secs_per_iter;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_are_positive_and_finite() {
        let p = PoissonProblem::laplace(64, 0.0);
        let t = time_iterations(&p, &Stencil::five_point(), PartitionShape::Strip, 2, 3, 1);
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn scaling_sweep_has_normalized_baseline() {
        let p = PoissonProblem::laplace(64, 0.0);
        let pts = measure_scaling(&p, &Stencil::five_point(), PartitionShape::Strip, &[1, 2], 3, 1);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].speedup, 1.0);
        assert!(pts[1].speedup > 0.0);
    }

    #[test]
    fn decompose_square_prefers_blocks() {
        let d = decompose(64, 16, PartitionShape::Square);
        assert_eq!(d.count(), 16);
        let r = d.region(0);
        assert_eq!(r.rows(), 16);
        assert_eq!(r.cols(), 16);
    }

    #[test]
    fn decompose_strip_caps_partitions_at_rows() {
        let d = decompose(8, 64, PartitionShape::Strip);
        assert_eq!(d.count(), 8);
    }
}
