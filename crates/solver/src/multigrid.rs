//! Geometric multigrid for the 5-point Poisson problem.
//!
//! The paper's related work (§2) cites Kamowitz's "SOR and MGR[v]
//! experiments on the Crystal multicomputer" — multigrid was already the
//! serious competitor to the point-iterative methods the model prices.
//! This V-cycle (red-black Gauss-Seidel smoothing, full-weighting
//! restriction, bilinear prolongation) completes the solver substrate: it
//! converges in O(1) cycles independent of `n`, which is why the paper's
//! per-iteration cycle-time model, not iteration counts, is the right
//! place to study architecture.
//!
//! Grids use interior sides `n = 2^k − 1` so coarsening halves cleanly
//! (`n_c = (n−1)/2`). The fine level carries arbitrary Dirichlet data in
//! its halo; coarse levels solve homogeneous-boundary *error* equations,
//! so any problem the other solvers accept works here too.

use crate::norms::linf;
use crate::{PoissonProblem, SolveStatus};
use parspeed_grid::Grid2D;

/// Geometric multigrid V-cycle solver (5-point stencil).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultigridSolver {
    /// Convergence tolerance on the residual max-norm.
    pub tol: f64,
    /// Maximum V-cycles.
    pub max_cycles: usize,
    /// Pre-smoothing red-black sweeps per level.
    pub pre_smooth: usize,
    /// Post-smoothing red-black sweeps per level.
    pub post_smooth: usize,
    /// Gauss-Seidel sweeps on the coarsest (n ≤ 3) level.
    pub coarse_sweeps: usize,
}

impl Default for MultigridSolver {
    fn default() -> Self {
        Self { tol: 1e-9, max_cycles: 50, pre_smooth: 2, post_smooth: 2, coarse_sweeps: 32 }
    }
}

/// True iff `n` is a valid multigrid interior side (`2^k − 1`, `k ≥ 1`).
pub fn valid_side(n: usize) -> bool {
    n >= 1 && (n + 1).is_power_of_two()
}

/// One red-black Gauss-Seidel sweep (both colours) for `-∇²u = f` with
/// spacing `h`; `u` has halo 1 holding boundary data. In-place row-slice
/// kernel: the neighbouring padded rows are split out once per row
/// ([`Grid2D::split_row_mut`]), the column loop strides the colour with no
/// per-point index arithmetic; same N, S, W, E + h²·f order as the
/// tap-driven form.
fn rb_sweep(u: &mut Grid2D, f: &Grid2D, h2: f64) {
    let n = u.rows();
    let halo = u.halo();
    let stride = u.stride();
    for color in 0..2usize {
        for r in 0..n {
            let frow = f.interior_row(r);
            let (above, mid, below) = u.split_row_mut(r);
            let up = &above[above.len() - stride..];
            let down = &below[..stride];
            let mut c = (r + color) % 2;
            while c < n {
                let j = c + halo;
                let acc = up[j] + down[j] + mid[j - 1] + mid[j + 1] + h2 * frow[c];
                mid[j] = acc * 0.25;
                c += 2;
            }
        }
    }
}

/// Residual `r = f − A·u` with `A = (4u − Σnb)/h²` (halo included in u).
fn residual(u: &Grid2D, f: &Grid2D, h2: f64, out: &mut Grid2D) {
    let n = u.rows();
    let halo = u.halo();
    for r in 0..n {
        let ri = r as isize;
        let up = u.padded_row(ri - 1);
        let mid = u.padded_row(ri);
        let down = u.padded_row(ri + 1);
        let frow = f.interior_row(r);
        let orow = out.interior_row_mut(r);
        for c in 0..n {
            let j = c + halo;
            let nb = up[j] + down[j] + mid[j - 1] + mid[j + 1];
            let au = (4.0 * mid[j] - nb) / h2;
            orow[c] = frow[c] - au;
        }
    }
}

/// Full-weighting restriction from fine (`n`) to coarse (`(n−1)/2`).
fn restrict(fine: &Grid2D, coarse: &mut Grid2D) {
    let nc = coarse.rows();
    for rc in 0..nc {
        for cc in 0..nc {
            // Coarse point (rc, cc) sits at fine point (2rc+1, 2cc+1).
            let (rf, cf) = (2 * rc + 1, 2 * cc + 1);
            let at = |dr: isize, dc: isize| -> f64 {
                let r = rf as isize + dr;
                let c = cf as isize + dc;
                if r < 0 || c < 0 || r >= fine.rows() as isize || c >= fine.cols() as isize {
                    0.0
                } else {
                    fine.get(r as usize, c as usize)
                }
            };
            let v = 0.25 * at(0, 0)
                + 0.125 * (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1))
                + 0.0625 * (at(-1, -1) + at(-1, 1) + at(1, -1) + at(1, 1));
            coarse.set(rc, cc, v);
        }
    }
}

/// Bilinear prolongation of the coarse correction, added into `fine`.
fn prolong_add(coarse: &Grid2D, fine: &mut Grid2D) {
    let nf = fine.rows();
    let nc = coarse.rows();
    let at = |r: isize, c: isize| -> f64 {
        if r < 0 || c < 0 || r >= nc as isize || c >= nc as isize {
            0.0 // homogeneous boundary of the error equation
        } else {
            coarse.get(r as usize, c as usize)
        }
    };
    for r in 0..nf {
        for c in 0..nf {
            // Fine (r, c) relative to coarse lattice at odd fine indices.
            let (ri, ci) = (r as isize, c as isize);
            let v = if r % 2 == 1 && c % 2 == 1 {
                at((ri - 1) / 2, (ci - 1) / 2)
            } else if r % 2 == 1 {
                0.5 * (at((ri - 1) / 2, ci / 2 - 1) + at((ri - 1) / 2, ci / 2))
            } else if c % 2 == 1 {
                0.5 * (at(ri / 2 - 1, (ci - 1) / 2) + at(ri / 2, (ci - 1) / 2))
            } else {
                0.25 * (at(ri / 2 - 1, ci / 2 - 1)
                    + at(ri / 2 - 1, ci / 2)
                    + at(ri / 2, ci / 2 - 1)
                    + at(ri / 2, ci / 2))
            };
            fine.set(r, c, fine.get(r, c) + v);
        }
    }
}

fn vcycle(u: &mut Grid2D, f: &Grid2D, h: f64, cfg: &MultigridSolver) {
    let n = u.rows();
    let h2 = h * h;
    if n <= 3 {
        for _ in 0..cfg.coarse_sweeps {
            rb_sweep(u, f, h2);
        }
        return;
    }
    for _ in 0..cfg.pre_smooth {
        rb_sweep(u, f, h2);
    }
    let mut res = Grid2D::new(n, n, 0);
    residual(u, f, h2, &mut res);
    let nc = (n - 1) / 2;
    let mut coarse_f = Grid2D::new(nc, nc, 0);
    restrict(&res, &mut coarse_f);
    let mut coarse_u = Grid2D::new(nc, nc, 1); // zero initial error, zero halo
    vcycle(&mut coarse_u, &coarse_f, 2.0 * h, cfg);
    prolong_add(&coarse_u, u);
    for _ in 0..cfg.post_smooth {
        rb_sweep(u, f, h2);
    }
}

impl MultigridSolver {
    /// Solves `problem` by repeated V-cycles; the problem's interior side
    /// must satisfy [`valid_side`].
    pub fn solve(&self, problem: &PoissonProblem) -> (Grid2D, SolveStatus) {
        let n = problem.n();
        assert!(valid_side(n), "multigrid needs n = 2^k − 1, got {n}");
        let h = problem.h();
        let h2 = h * h;
        let mut u = problem.initial_grid(1);
        let f = problem.forcing();
        let mut res = Grid2D::new(n, n, 0);

        let norm0 = {
            residual(&u, f, h2, &mut res);
            linf(&res).max(f64::MIN_POSITIVE)
        };
        let mut cycles = 0;
        let mut rel = 1.0;
        while cycles < self.max_cycles {
            vcycle(&mut u, f, h, self);
            cycles += 1;
            residual(&u, f, h2, &mut res);
            rel = linf(&res) / norm0;
            if rel < self.tol {
                return (u, SolveStatus { converged: true, iterations: cycles, final_diff: rel });
            }
        }
        (u, SolveStatus { converged: false, iterations: cycles, final_diff: rel })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JacobiSolver, Manufactured};
    use parspeed_stencil::Stencil;

    #[test]
    fn valid_sides() {
        for n in [1usize, 3, 7, 15, 31, 63, 127] {
            assert!(valid_side(n), "{n}");
        }
        for n in [0usize, 2, 4, 8, 16, 100] {
            assert!(!valid_side(n), "{n}");
        }
    }

    #[test]
    fn converges_in_a_handful_of_cycles() {
        let p = PoissonProblem::manufactured(31, Manufactured::SinSin);
        let (u, status) = MultigridSolver::default().solve(&p);
        assert!(status.converged);
        assert!(status.iterations <= 12, "{} cycles", status.iterations);
        let err = u.max_abs_diff(&p.exact_solution().unwrap());
        assert!(err < 5e-3, "error {err}");
    }

    #[test]
    fn cycle_count_is_h_independent() {
        // The multigrid signature: cycles do not grow with n.
        let cycles = |n: usize| {
            let p = PoissonProblem::manufactured(n, Manufactured::Bubble);
            let (_, s) = MultigridSolver::default().solve(&p);
            assert!(s.converged, "n={n}");
            s.iterations
        };
        let c15 = cycles(15);
        let c63 = cycles(63);
        assert!(c63 <= c15 + 2, "cycles grew: {c15} → {c63}");
    }

    #[test]
    fn orders_of_magnitude_fewer_iterations_than_jacobi() {
        let p = PoissonProblem::manufactured(31, Manufactured::SinSin);
        let (_, mg) = MultigridSolver::default().solve(&p);
        let (_, jac) = JacobiSolver::with_tol(1e-9).solve(&p, &Stencil::five_point());
        assert!(
            jac.iterations > 100 * mg.iterations,
            "MG {} vs Jacobi {}",
            mg.iterations,
            jac.iterations
        );
    }

    #[test]
    fn agrees_with_jacobi_solution() {
        let p = PoissonProblem::manufactured(15, Manufactured::Bubble);
        let (u_mg, _) = MultigridSolver { tol: 1e-12, ..Default::default() }.solve(&p);
        let (u_j, _) = JacobiSolver::with_tol(1e-12).solve(&p, &Stencil::five_point());
        assert!(u_mg.max_abs_diff(&u_j) < 1e-8);
    }

    #[test]
    fn handles_nonzero_boundary() {
        // Saddle: harmonic with non-trivial Dirichlet data; the V-cycle
        // must reproduce it (coarse levels see only the error equation).
        let p = PoissonProblem::manufactured(31, Manufactured::Saddle);
        let (u, status) = MultigridSolver::default().solve(&p);
        assert!(status.converged);
        let err = u.max_abs_diff(&p.exact_solution().unwrap());
        assert!(err < 1e-4, "error {err} (5-point is exact on quadratics)");
    }

    #[test]
    fn restriction_preserves_constants() {
        let fine = Grid2D::from_fn(7, 7, 0, |_, _| 2.0);
        let mut coarse = Grid2D::new(3, 3, 0);
        restrict(&fine, &mut coarse);
        // Interior coarse points see the full 9-point weighting: exactly 2.
        assert!((coarse.get(1, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prolongation_interpolates_bilinearly() {
        let coarse = Grid2D::from_fn(3, 3, 0, |r, c| (r + c) as f64);
        let mut fine = Grid2D::new(7, 7, 0);
        prolong_add(&coarse, &mut fine);
        // Fine point (3,3) coincides with coarse (1,1) = 2.
        assert!((fine.get(3, 3) - 2.0).abs() < 1e-12);
        // Fine point (3,4) sits between coarse (1,1)=2 and (1,2)=3 → 2.5.
        assert!((fine.get(3, 4) - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "2^k − 1")]
    fn rejects_bad_sides() {
        let p = PoissonProblem::laplace(10, 0.0);
        let _ = MultigridSolver::default().solve(&p);
    }
}
