//! Point Jacobi and weighted Jacobi — the algorithm the paper models.

use crate::apply::{jacobi_sweep_blend, jacobi_sweep_blend_par, jacobi_sweep_blend_region};
use crate::checkpoint::{Checkpoint, CheckpointCtx};
use crate::{CheckPolicy, PoissonProblem, SolveStatus};
use parspeed_grid::maxnorm::max_step;
use parspeed_grid::{BandSchedule, Grid2D, Region};
use parspeed_stencil::Stencil;

/// Deepest block of iterations run between convergence checks as one
/// temporally tiled unit. Deeper blocks amortize more traversal overhead
/// but widen the trapezoid's trailing skew (`block · reach` rows), with
/// quickly diminishing returns once the sweep is compute-bound.
const MAX_TEMPORAL_BLOCK: usize = 8;

/// Cache budget (bytes) the temporal tiling aims to keep resident: the
/// advancing band of both buffers plus the trailing skew. Sized for a
/// typical per-core L2.
const TEMPORAL_CACHE_BUDGET: usize = 1 << 20;

/// Point-Jacobi solver with scheduled convergence checking.
///
/// Every iteration runs as **one** fused pass through
/// [`crate::apply::jacobi_sweep_blend`]: the sweep, the ω-blend, and the
/// max-norm update reduction that used to be three separate full-grid
/// passes. Between scheduled checks the sequential path additionally
/// temporal-tiles: blocks of up to `MAX_TEMPORAL_BLOCK` iterations
/// (never past the next check, so no iterate is wasted) advance a
/// cache-resident row band through all block levels via
/// [`parspeed_grid::BandSchedule`]. Jacobi is out-of-place, so neither
/// fusion nor the band traversal changes the order any point *evaluates*
/// in — iterates are bit-identical to the plain one-sweep-at-a-time loop,
/// which the property tests assert.
///
/// Setting [`parallel`](JacobiSolver::parallel) runs each sweep
/// row-parallel over [`parspeed_grid::par`] bands (the same switch
/// [`crate::RedBlackSolver`] exposes); Jacobi reads only the previous iterate, so this cannot change
/// results either.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JacobiSolver {
    /// Convergence tolerance on the max-norm update difference.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// When to check convergence (§4's scheduling knob). The gap until
    /// the next check is also the temporal-tiling budget.
    pub check: CheckPolicy,
    /// Damping factor: `1.0` is plain Jacobi; `(0,1)` under-relaxes.
    pub omega: f64,
    /// Run each sweep row-parallel over the default thread count.
    pub parallel: bool,
}

impl Default for JacobiSolver {
    fn default() -> Self {
        Self {
            tol: 1e-8,
            max_iters: 200_000,
            check: CheckPolicy::Every(1),
            omega: 1.0,
            parallel: false,
        }
    }
}

impl JacobiSolver {
    /// Plain Jacobi with the given tolerance.
    pub fn with_tol(tol: f64) -> Self {
        Self { tol, ..Self::default() }
    }

    /// The same solver with row-parallel sweeps.
    pub fn parallel(mut self) -> Self {
        self.parallel = true;
        self
    }

    /// Solves `problem` with `stencil`; returns the solution grid (halo =
    /// stencil reach) and the solve status.
    pub fn solve(&self, problem: &PoissonProblem, stencil: &Stencil) -> (Grid2D, SolveStatus) {
        let (u, status, _) = self.solve_checkpointed(problem, stencil, None);
        (u, status)
    }

    /// [`solve`](Self::solve) with checkpoint/restart: if `ctx` holds a
    /// surviving snapshot for this solve's key, iteration resumes from
    /// it (bit-identically — Jacobi reads only the previous iterate, and
    /// the snapshot *is* the previous iterate); at checkpoint-scheduled
    /// check boundaries the current iterate is snapshotted; a converged
    /// solve removes its entry (a capped one keeps it, so a retry with a
    /// higher budget resumes). The third return is the iteration the
    /// solve resumed from (`None` when it started fresh).
    pub fn solve_checkpointed(
        &self,
        problem: &PoissonProblem,
        stencil: &Stencil,
        ctx: Option<CheckpointCtx<'_>>,
    ) -> (Grid2D, SolveStatus, Option<usize>) {
        assert!(self.omega > 0.0 && self.omega <= 1.0, "need 0 < ω ≤ 1");
        let halo = stencil.reach();
        let h2 = problem.h() * problem.h();
        let mut u = problem.initial_grid(halo);
        let mut next = u.clone();
        let f = problem.forcing();

        let mut iterations = 0;
        let mut resumed_from = None;
        if let Some(ctx) = ctx {
            if let Some(cp) = ctx.store.load(ctx.key) {
                if cp.fits(&u) && cp.iteration > 0 && cp.iteration <= self.max_iters {
                    // The snapshot is the iterate at a check boundary;
                    // the scratch buffer needs no restore (its interior
                    // is always fully written before it is read) and the
                    // halo is the problem's boundary data, unchanged.
                    cp.restore_into(&mut u);
                    iterations = cp.iteration;
                    resumed_from = Some(cp.iteration);
                    ctx.store.note_resume();
                }
            }
        }
        let mut diff = f64::INFINITY;
        // The check schedule is a pure function of the iteration count:
        // fast-forwarding reproduces exactly the cursor the uninterrupted
        // run had at this iteration.
        let mut next_check = self.check.first_check();
        while next_check <= iterations {
            next_check = self.check.next_check(next_check);
        }
        let mut checks_since_snapshot = 0usize;
        while iterations < self.max_iters {
            // Run to the next scheduled check (or the cap, whichever is
            // first) in blocks; only the block ending on a check pays for
            // the reduction.
            let target = next_check.min(self.max_iters).max(iterations + 1);
            let block = (target - iterations).min(MAX_TEMPORAL_BLOCK);
            let at_check = iterations + block == target;
            let d = self.advance(stencil, &mut u, &mut next, f, h2, block, at_check);
            iterations += block;
            if at_check {
                diff = d;
                if diff < self.tol {
                    if let Some(ctx) = ctx {
                        ctx.store.remove(ctx.key);
                    }
                    let status = SolveStatus { converged: true, iterations, final_diff: diff };
                    return (u, status, resumed_from);
                }
                while next_check <= iterations {
                    next_check = self.check.next_check(next_check);
                }
                if let Some(ctx) = ctx {
                    if iterations < self.max_iters {
                        checks_since_snapshot += 1;
                        if checks_since_snapshot >= ctx.policy.every {
                            checks_since_snapshot = 0;
                            ctx.store.save(ctx.key, Checkpoint::capture(&u, iterations, 0));
                        }
                    }
                }
            }
        }
        // A capped solve keeps its latest snapshot: a retry with a
        // higher budget resumes instead of restarting.
        (u, SolveStatus { converged: false, iterations, final_diff: diff }, resumed_from)
    }

    /// Advances `block ≥ 1` iterations, leaving the newest iterate in `u`.
    /// Returns the max-norm update difference of the *last* iteration when
    /// `compute_diff` is set (`0.0` otherwise).
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        stencil: &Stencil,
        u: &mut Grid2D,
        next: &mut Grid2D,
        f: &Grid2D,
        h2: f64,
        block: usize,
        compute_diff: bool,
    ) -> f64 {
        if self.parallel || block == 1 {
            // Full fused sweeps, one iteration at a time (the parallel
            // path already streams rows across cores; skewing it would serialize
            // the band).
            let mut d = 0.0;
            for j in 1..=block {
                let cd = compute_diff && j == block;
                d = if self.parallel {
                    jacobi_sweep_blend_par(stencil, u, next, f, h2, self.omega, cd)
                } else {
                    jacobi_sweep_blend(stencil, u, next, f, h2, self.omega, cd)
                };
                u.swap(next);
            }
            return d;
        }
        // Temporal tiling: drive the trapezoidal band schedule; level
        // parity picks the buffer (level 0 = `u`), so each step is an
        // ordinary out-of-place region sweep.
        let (rows, cols) = (u.rows(), u.cols());
        let reach = stencil.reach();
        let band =
            BandSchedule::band_rows_for_budget(u.stride() * 8, block, reach, TEMPORAL_CACHE_BUDGET)
                .clamp(1, rows.max(1));
        let mut d = 0.0f64;
        for step in BandSchedule::new(rows, block, reach, band).steps() {
            let cd = compute_diff && step.level == block;
            let region = Region::new(step.rows.start, step.rows.end, 0, cols);
            let worst = if step.level % 2 == 1 {
                jacobi_sweep_blend_region(stencil, u, next, f, h2, &region, (0, 0), self.omega, cd)
            } else {
                jacobi_sweep_blend_region(stencil, next, u, f, h2, &region, (0, 0), self.omega, cd)
            };
            if cd {
                d = max_step(d, worst);
            }
        }
        if block % 2 == 1 {
            u.swap(next);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply::residual_max;
    use crate::Manufactured;

    #[test]
    fn converges_on_sinsin_to_discretization_accuracy() {
        let n = 24;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let (u, status) = JacobiSolver::with_tol(1e-10).solve(&p, &Stencil::five_point());
        assert!(status.converged, "did not converge in {} iters", status.iterations);
        let exact = p.exact_solution().unwrap();
        let err = u.max_abs_diff(&exact);
        // O(h²) discretization error: h = 1/25 ⇒ ~π²/12·h²·‖u‖ ≈ 1.3e-3.
        assert!(err < 5e-3, "error {err}");
        assert!(err > 1e-6, "suspiciously exact — check the test");
    }

    #[test]
    fn laplace_with_constant_boundary_converges_to_that_constant() {
        let p = PoissonProblem::laplace(16, 4.2);
        let (u, status) = JacobiSolver::with_tol(1e-12).solve(&p, &Stencil::five_point());
        assert!(status.converged);
        for r in 0..16 {
            for c in 0..16 {
                assert!((u.get(r, c) - 4.2).abs() < 1e-8, "({r},{c}) = {}", u.get(r, c));
            }
        }
    }

    #[test]
    fn error_shrinks_like_h_squared() {
        let err_at = |n: usize| {
            let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
            let (u, s) = JacobiSolver::with_tol(1e-11).solve(&p, &Stencil::five_point());
            assert!(s.converged);
            u.max_abs_diff(&p.exact_solution().unwrap())
        };
        let e8 = err_at(8);
        let e16 = err_at(16);
        // h halves (roughly): error should drop ~4×; allow slack for the
        // (n+1) spacing mismatch.
        let ratio = e8 / e16;
        assert!(ratio > 2.5 && ratio < 6.0, "ratio {ratio}");
    }

    #[test]
    fn nine_point_box_solves_too() {
        let n = 16;
        let p = PoissonProblem::manufactured(n, Manufactured::Bubble);
        let (u, status) = JacobiSolver::with_tol(1e-10).solve(&p, &Stencil::nine_point_box());
        assert!(status.converged);
        let err = u.max_abs_diff(&p.exact_solution().unwrap());
        assert!(err < 1e-3, "error {err}");
    }

    #[test]
    fn plain_jacobi_diverges_on_the_nine_point_star() {
        // The fourth-order star operator is not diagonally dominant
        // (|off-diag| sums to 68 against a diagonal of 60), and the Jacobi
        // iteration matrix has spectral radius ≈ 68/60 > 1 at the highest
        // frequencies: undamped point Jacobi diverges. The paper models the
        // *cost* of such stencils, not their convergence — this pins the
        // numerical fact that forces damping below.
        // The initial error is the smooth (1,1) mode, so the unstable
        // highest mode is seeded only by rounding noise (~1e-16·|λ|^k);
        // a couple of thousand iterations make the growth unmistakable.
        let p = PoissonProblem::manufactured(12, Manufactured::SinSin);
        let probe = JacobiSolver { max_iters: 2000, tol: 1e-15, ..Default::default() };
        let (_, status) = probe.solve(&p, &Stencil::nine_point_star());
        assert!(!status.converged);
        assert!(status.final_diff > 1.0, "diff {} should have blown up", status.final_diff);
    }

    #[test]
    fn reach_two_stencils_solve_with_damping_and_analytic_ghosts() {
        // ω < 2/(1 + ρ) ≈ 0.94 restores convergence for the star operators.
        let n = 12;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        for s in [Stencil::nine_point_star(), Stencil::thirteen_point_star()] {
            let damped = JacobiSolver { omega: 0.8, tol: 1e-10, ..Default::default() };
            let (u, status) = damped.solve(&p, &s);
            assert!(status.converged, "{}", s.name());
            let err = u.max_abs_diff(&p.exact_solution().unwrap());
            assert!(err < 5e-2, "{}: error {err}", s.name());
        }
    }

    #[test]
    fn check_period_changes_iteration_count_only_slightly() {
        let n = 12;
        let p = PoissonProblem::manufactured(n, Manufactured::Bubble);
        let base = JacobiSolver { check: CheckPolicy::Every(1), tol: 1e-9, ..Default::default() };
        let lazy = JacobiSolver { check: CheckPolicy::Every(25), tol: 1e-9, ..Default::default() };
        let (_, s1) = base.solve(&p, &Stencil::five_point());
        let (_, s25) = lazy.solve(&p, &Stencil::five_point());
        assert!(s1.converged && s25.converged);
        assert!(s25.iterations >= s1.iterations);
        assert!(s25.iterations <= s1.iterations + 25, "{} vs {}", s25.iterations, s1.iterations);
        assert_eq!(s25.iterations % 25, 0);
    }

    #[test]
    fn geometric_policy_converges_with_bounded_overshoot() {
        let n = 16;
        let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let eager = JacobiSolver { tol: 1e-9, ..Default::default() };
        let lazy =
            JacobiSolver { check: CheckPolicy::geometric(), tol: 1e-9, ..Default::default() };
        let (_, se) = eager.solve(&p, &Stencil::five_point());
        let (_, sl) = lazy.solve(&p, &Stencil::five_point());
        assert!(se.converged && sl.converged);
        assert!(sl.iterations >= se.iterations);
        // Geometric gaps are capped at 256: bounded overshoot.
        assert!(sl.iterations <= se.iterations + 256, "{} vs {}", sl.iterations, se.iterations);
        // The lazy schedule must land on schedule points.
        assert!(CheckPolicy::geometric().schedule(sl.iterations).contains(&sl.iterations));
    }

    /// The plain historical loop: one whole-grid sweep, a separate blend
    /// pass, swap — the k=1 reference the block-of-k loop must match
    /// bitwise.
    fn reference_iterates(p: &PoissonProblem, s: &Stencil, omega: f64, iters: usize) -> Grid2D {
        use crate::apply::jacobi_sweep;
        let halo = s.reach();
        let h2 = p.h() * p.h();
        let mut u = p.initial_grid(halo);
        let mut next = p.initial_grid(halo);
        let f = p.forcing();
        for _ in 0..iters {
            jacobi_sweep(s, &u, &mut next, f, h2);
            if omega != 1.0 {
                for r in 0..u.rows() {
                    let urow = u.interior_row(r).to_vec();
                    for (nv, &uv) in next.interior_row_mut(r).iter_mut().zip(&urow) {
                        *nv = omega * *nv + (1.0 - omega) * uv;
                    }
                }
            }
            u.swap(&mut next);
        }
        u
    }

    #[test]
    fn block_of_k_iterates_match_the_plain_loop_bitwise() {
        // tol = 0 never converges, so exactly `max_iters` iterations run —
        // lazy policies trigger temporal-tiled blocks of every size up to
        // the cap, including a truncated final block.
        let p = PoissonProblem::manufactured(14, Manufactured::SinSin);
        for s in [Stencil::five_point(), Stencil::thirteen_point_star()] {
            for check in [CheckPolicy::Every(1), CheckPolicy::Every(7), CheckPolicy::geometric()] {
                for omega in [1.0, 0.8] {
                    let solver = JacobiSolver {
                        tol: 0.0,
                        max_iters: 23,
                        check,
                        omega,
                        ..Default::default()
                    };
                    let (u, status) = solver.solve(&p, &s);
                    assert_eq!(status.iterations, 23);
                    let reference = reference_iterates(&p, &s, omega, 23);
                    assert_eq!(u.max_abs_diff(&reference), 0.0, "{} {check:?} ω={omega}", s.name());
                }
            }
        }
    }

    #[test]
    fn damped_jacobi_still_converges() {
        let p = PoissonProblem::manufactured(10, Manufactured::Bubble);
        let solver = JacobiSolver { omega: 0.8, tol: 1e-9, ..Default::default() };
        let (u, status) = solver.solve(&p, &Stencil::five_point());
        assert!(status.converged);
        // Damping slows convergence but lands on the same fixed point.
        let res = residual_max(&Stencil::five_point(), &u, p.forcing(), p.h() * p.h());
        assert!(res < 1e-5, "residual {res}");
    }

    #[test]
    fn iteration_cap_reports_non_convergence() {
        let p = PoissonProblem::manufactured(24, Manufactured::SinSin);
        let solver = JacobiSolver { max_iters: 10, tol: 1e-12, ..Default::default() };
        let (_, status) = solver.solve(&p, &Stencil::five_point());
        assert!(!status.converged);
        assert_eq!(status.iterations, 10);
        assert!(status.final_diff > 1e-12);
    }

    #[test]
    fn parallel_solve_is_bit_identical_to_sequential() {
        for s in [Stencil::five_point(), Stencil::thirteen_point_star()] {
            let p = PoissonProblem::manufactured(14, Manufactured::SinSin);
            let solver = JacobiSolver { omega: 0.8, tol: 1e-9, ..Default::default() };
            let (u_seq, s_seq) = solver.solve(&p, &s);
            let (u_par, s_par) = solver.parallel().solve(&p, &s);
            assert_eq!(s_seq.iterations, s_par.iterations, "{}", s.name());
            assert_eq!(u_seq.max_abs_diff(&u_par), 0.0, "{}", s.name());
        }
    }

    #[test]
    fn resumed_solves_are_bit_identical_at_every_checkpoint_granularity() {
        use crate::checkpoint::{CheckpointCtx, CheckpointPolicy, CheckpointStore};
        // Interrupt a solve by capping its budget (the snapshot the
        // "dead shard" left behind survives), then resume with the full
        // budget and demand the uninterrupted result, bit for bit —
        // every catalogue stencil, eager + geometric check schedules,
        // and several checkpoint cadences.
        let p = PoissonProblem::manufactured(12, Manufactured::SinSin);
        for s in Stencil::catalog() {
            for check in [CheckPolicy::Every(3), CheckPolicy::geometric()] {
                let solver = JacobiSolver { omega: 0.8, tol: 1e-9, check, ..Default::default() };
                let (u_ref, st_ref) = solver.solve(&p, &s);
                assert!(st_ref.converged, "{}", s.name());
                for every in [1usize, 2, 4] {
                    for cut in [st_ref.iterations / 3, 2 * st_ref.iterations / 3] {
                        let store = CheckpointStore::new(4);
                        let policy = CheckpointPolicy::every(every);
                        let ctx = CheckpointCtx { store: &store, policy, key: 7 };
                        // First leg: dies (runs out of budget) at `cut`.
                        let interrupted = JacobiSolver { max_iters: cut, ..solver };
                        let (_, st1, from1) = interrupted.solve_checkpointed(&p, &s, Some(ctx));
                        assert!(!st1.converged);
                        assert_eq!(from1, None);
                        let saved = store.load(7).expect("snapshot survives the interruption");
                        assert!(saved.iteration < cut);
                        // Second leg: the failover resumes and finishes.
                        let (u2, st2, from2) = solver.solve_checkpointed(&p, &s, Some(ctx));
                        assert_eq!(from2, Some(saved.iteration), "{} every={every}", s.name());
                        assert_eq!(st2.iterations, st_ref.iterations, "{}", s.name());
                        assert_eq!(st2.final_diff.to_bits(), st_ref.final_diff.to_bits());
                        assert_eq!(
                            u2.max_abs_diff(&u_ref),
                            0.0,
                            "{} {check:?} every={every} cut={cut}",
                            s.name()
                        );
                        // Converged: the solve cleaned up after itself.
                        assert!(store.load(7).is_none());
                        assert_eq!(store.resumes(), 1);
                    }
                }
            }
        }
    }

    #[test]
    fn checkpoint_cadence_counts_checks_not_iterations() {
        use crate::checkpoint::{CheckpointCtx, CheckpointPolicy, CheckpointStore};
        // tol = 0 never converges: exactly max_iters run, checks land
        // every 5 iterations, snapshots every 2nd check — the surviving
        // snapshot is the last boundary before the cap.
        let p = PoissonProblem::manufactured(10, Manufactured::Bubble);
        let store = CheckpointStore::new(2);
        let ctx = CheckpointCtx { store: &store, policy: CheckpointPolicy::every(2), key: 1 };
        let solver = JacobiSolver {
            tol: 0.0,
            max_iters: 23,
            check: CheckPolicy::Every(5),
            ..Default::default()
        };
        let (_, st, from) = solver.solve_checkpointed(&p, &Stencil::five_point(), Some(ctx));
        assert!(!st.converged);
        assert_eq!(from, None);
        // Checks at 5, 10, 15, 20 (and the cap 23); snapshots at 10, 20.
        assert_eq!(store.taken(), 2);
        assert_eq!(store.load(1).unwrap().iteration, 20);
    }

    #[test]
    fn status_reports_final_diff_below_tol_on_success() {
        let p = PoissonProblem::manufactured(8, Manufactured::Bubble);
        let (_, status) = JacobiSolver::with_tol(1e-7).solve(&p, &Stencil::five_point());
        assert!(status.converged);
        assert!(status.final_diff < 1e-7);
    }
}
