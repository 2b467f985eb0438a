//! Red-black Gauss-Seidel/SOR: the parallelizable ordering.
//!
//! Colouring the grid like a checkerboard makes every same-colour update
//! independent: a red update reads only black cells (the 5-point cross
//! always lands on the opposite colour), so each half-sweep parallelizes
//! perfectly — the classic answer to lexicographic SOR's sequential data
//! dependence, and the ordering a machine from the paper would actually
//! run.
//!
//! Each half-sweep computes new values into a scratch grid (row bands
//! over [`par::map`], reading the current grid immutably) and then
//! scatters them back (row bands over disjoint row slices). Because
//! colour-χ updates never read colour-χ cells, this is bit-identical to
//! the in-place sequential red-black sweep.

use crate::apply::relax_update;
use crate::{PoissonProblem, SolveStatus};
use parspeed_grid::maxnorm::max_step;
use parspeed_grid::{par, Grid2D};

/// Red-black SOR solver (5-point stencil: the colouring argument requires
/// the cross stencil, whose taps all touch the opposite colour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedBlackSolver {
    /// Convergence tolerance on the max-norm update difference.
    pub tol: f64,
    /// Iteration cap (full red+black sweeps).
    pub max_iters: usize,
    /// Relaxation factor in `(0, 2)`.
    pub omega: f64,
    /// Run the colour half-sweeps over [`par::default_threads`] row bands
    /// (one band when unset).
    pub parallel: bool,
}

impl RedBlackSolver {
    /// Red-black Gauss-Seidel.
    pub fn gauss_seidel(tol: f64) -> Self {
        Self { tol, max_iters: 200_000, omega: 1.0, parallel: true }
    }

    /// Red-black SOR with the optimal 5-point factor
    /// `ω* = 2/(1 + sin(π·h))`.
    pub fn optimal(n: usize, tol: f64) -> Self {
        let h = std::f64::consts::PI / (n as f64 + 1.0);
        Self { tol, max_iters: 200_000, omega: 2.0 / (1.0 + h.sin()), parallel: true }
    }

    /// Sequential variant (for equivalence tests).
    pub fn sequential(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// One colour half-sweep: compute into `scratch`, scatter back into
    /// `u`. Returns the max update difference of the half-sweep.
    fn half_sweep(
        &self,
        u: &mut Grid2D,
        scratch: &mut Grid2D,
        f: &Grid2D,
        h2: f64,
        color: usize,
    ) -> f64 {
        let n = u.rows();
        let halo = u.halo();
        let stride = u.stride();
        let omega = self.omega;

        // Phase 1: new colour-χ values into scratch (reads u immutably).
        // Row-slice indexing instead of per-point `get_h`: the three padded
        // source rows are hoisted out of the column loop, with the same
        // N, S, W, E + h²·f arithmetic order as before (bit-identical).
        let compute_row = |r: usize, row_out: &mut [f64], u: &Grid2D| -> f64 {
            let mut worst = 0.0f64;
            let ri = r as isize;
            let up = u.padded_row(ri - 1);
            let mid = u.padded_row(ri);
            let down = u.padded_row(ri + 1);
            let frow = f.interior_row(r);
            let mut c = (r + color) % 2;
            while c < n {
                let j = c + halo;
                let acc = up[j] + down[j] + mid[j - 1] + mid[j + 1] + h2 * frow[c];
                // Same fused relax-and-reduce core as the lexicographic
                // sweeps: the convergence diff folds into the half-sweep,
                // never a separate `max_abs_diff` pass.
                row_out[j] = relax_update(mid[j], acc * 0.25, omega, &mut worst);
                c += 2;
            }
            worst
        };
        let threads = if self.parallel { par::default_threads() } else { 1 };
        let src = &*u;
        let rows = scratch.as_mut_slice().chunks_mut(stride).skip(halo).take(n).enumerate();
        let diff = par::map(rows, threads, |(r, row)| compute_row(r, row, src))
            .into_iter()
            .fold(0.0, max_step);

        // Phase 2: scatter colour-χ cells back into u (reads scratch).
        let scratch = &*scratch;
        let rows = u.as_mut_slice().chunks_mut(stride).skip(halo).take(n).enumerate();
        par::map(rows, threads, |(r, row)| {
            let mut c = (r + color) % 2;
            while c < n {
                row[c + halo] = scratch.get(r, c);
                c += 2;
            }
        });
        diff
    }

    /// Solves `problem` (5-point stencil).
    pub fn solve(&self, problem: &PoissonProblem) -> (Grid2D, SolveStatus) {
        assert!(self.omega > 0.0 && self.omega < 2.0, "SOR needs 0 < ω < 2");
        let h2 = problem.h() * problem.h();
        let mut u = problem.initial_grid(1);
        let mut scratch = Grid2D::new(problem.n(), problem.n(), 1);
        let f = problem.forcing();

        let mut iterations = 0;
        let mut diff = f64::INFINITY;
        while iterations < self.max_iters {
            let d_red = self.half_sweep(&mut u, &mut scratch, f, h2, 0);
            let d_black = self.half_sweep(&mut u, &mut scratch, f, h2, 1);
            iterations += 1;
            diff = max_step(d_red, d_black);
            if diff < self.tol {
                return (u, SolveStatus { converged: true, iterations, final_diff: diff });
            }
        }
        (u, SolveStatus { converged: false, iterations, final_diff: diff })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JacobiSolver, Manufactured, SorSolver};
    use parspeed_stencil::Stencil;

    #[test]
    fn parallel_and_sequential_are_bit_identical() {
        let n = 20;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let par = RedBlackSolver::gauss_seidel(1e-9);
        let seq = RedBlackSolver::gauss_seidel(1e-9).sequential();
        let (up, sp) = par.solve(&p);
        let (us, ss) = seq.solve(&p);
        assert_eq!(sp.iterations, ss.iterations);
        assert_eq!(up.max_abs_diff(&us), 0.0, "parallel differs from sequential");
    }

    #[test]
    fn converges_to_the_analytic_solution() {
        let n = 20;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let (u, status) = RedBlackSolver::optimal(n, 1e-10).solve(&p);
        assert!(status.converged);
        let err = u.max_abs_diff(&p.exact_solution().unwrap());
        assert!(err < 5e-3, "error {err}");
    }

    #[test]
    fn red_black_gs_converges_like_lexicographic_gs() {
        let n = 16;
        let p = PoissonProblem::manufactured(n, Manufactured::Bubble);
        let (_, rb) = RedBlackSolver::gauss_seidel(1e-8).solve(&p);
        let (_, gs) = SorSolver::gauss_seidel(1e-8).solve(&p, &Stencil::five_point());
        assert!(rb.converged && gs.converged);
        let ratio = rb.iterations as f64 / gs.iterations as f64;
        assert!(ratio > 0.6 && ratio < 1.7, "ratio {ratio}");
    }

    #[test]
    fn beats_jacobi_and_optimal_sor_beats_gs() {
        let n = 20;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let (_, jac) = JacobiSolver::with_tol(1e-8).solve(&p, &Stencil::five_point());
        let (_, rb_gs) = RedBlackSolver::gauss_seidel(1e-8).solve(&p);
        let (_, rb_sor) = RedBlackSolver::optimal(n, 1e-8).solve(&p);
        assert!(rb_gs.iterations < jac.iterations);
        assert!(rb_sor.iterations * 3 < rb_gs.iterations);
    }

    #[test]
    fn laplace_flattens_to_boundary_constant() {
        let p = PoissonProblem::laplace(12, -1.5);
        let (u, status) = RedBlackSolver::gauss_seidel(1e-11).solve(&p);
        assert!(status.converged);
        for r in 0..12 {
            for c in 0..12 {
                assert!((u.get(r, c) + 1.5).abs() < 1e-8);
            }
        }
    }
}
