//! The partitioned Jacobi executor.
//!
//! Each partition owns local double-buffered grids with a halo of
//! `depth × reach` (depth 1 unless built
//! [`PartitionedJacobi::with_depth`]). One block of up to `depth`
//! iterations is two [`par::map`] phases over at most
//! [`threads`](PartitionedJacobi::threads) threads:
//!
//! 1. **publish** — every halo copy of the (deep) exchange plan extracts
//!    its rectangle from the owner's current grid (read-only, parallel
//!    over copies);
//! 2. **install + sub-iterate** — every partition installs the published
//!    rectangles addressed to it into its halo, then runs the whole block
//!    of sweeps locally (parallel over partitions, each mutating only its
//!    own state): sub-iteration `j` of a `b`-iteration block sweeps the
//!    partition's region *expanded* by `(b − j)·reach` ghost rows/columns,
//!    so the final sub-iteration's owned values are exact. Halo traffic
//!    per iteration drops by ~`b` — the paper's per-iteration overhead
//!    knob — at the cost of the redundant ghost-zone arithmetic.
//!
//! Because a Jacobi update reads only previous-iteration values, and the
//! redundant ghost computations reproduce the owner's arithmetic exactly,
//! the result is bit-for-bit identical to the sequential whole-grid sweep
//! — which the tests assert, making this executor a machine-checked
//! refinement of `parspeed-solver`. Each per-region sweep goes through
//! [`jacobi_sweep_region`]'s kernel dispatch, so partitions of catalogue
//! stencils run the fused row-slice kernels (including the expanded
//! ghost sweeps, whose regions stay one reach inside the deep halo).

use crate::adaptive::CheckScheduler;
use crate::CheckPolicy;
use parspeed_grid::halo::{plan_deep, CopySpec};
use parspeed_grid::maxnorm::max_step;
use parspeed_grid::{par, Decomposition, Grid2D, Region};
use parspeed_solver::apply::jacobi_sweep_region;
use parspeed_solver::{Boundary, Checkpoint, CheckpointCtx, PoissonProblem};
use parspeed_stencil::Stencil;

struct Part {
    region: Region,
    u: Grid2D,
    next: Grid2D,
}

/// Outcome of a partitioned solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveRun {
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Iterations performed.
    pub iterations: usize,
    /// Convergence checks performed.
    pub checks: usize,
    /// Last observed global max-norm update difference.
    pub final_diff: f64,
}

/// Partitioned, thread-parallel point-Jacobi executor.
pub struct PartitionedJacobi {
    stencil: Stencil,
    h2: f64,
    forcing: Grid2D,
    n: usize,
    depth: usize,
    copies: Vec<CopySpec>,
    incoming: Vec<Vec<usize>>, // per partition: indices into `copies`
    parts: Vec<Part>,
    threads: usize,
    iterations: usize,
    exchanges: usize,
}

impl PartitionedJacobi {
    /// Builds the executor for `problem` under `decomp`, exchanging every
    /// iteration (halo depth 1).
    pub fn new<D: Decomposition + ?Sized>(
        problem: &PoissonProblem,
        stencil: &Stencil,
        decomp: &D,
    ) -> Self {
        Self::with_depth(problem, stencil, decomp, 1)
    }

    /// Builds a **communication-avoiding** executor: halos are
    /// `depth × reach` deep, and one exchange funds up to `depth` local
    /// sub-iterations ([`PartitionedJacobi::iterate_block`]), dividing
    /// exchange rounds per iteration by the block size. Each block fans
    /// out over `min(partitions, default_threads())` threads; set another
    /// count with [`PartitionedJacobi::threads`].
    pub fn with_depth<D: Decomposition + ?Sized>(
        problem: &PoissonProblem,
        stencil: &Stencil,
        decomp: &D,
        depth: usize,
    ) -> Self {
        assert_eq!(problem.n(), decomp.domain(), "decomposition does not match the problem");
        assert!(depth >= 1, "halo depth must be at least 1");
        let halo_plan = plan_deep(decomp, stencil, depth);
        let copies = halo_plan.copies().to_vec();
        let mut incoming = vec![Vec::new(); decomp.count()];
        for (ci, c) in copies.iter().enumerate() {
            incoming[c.dst].push(ci);
        }
        let k = depth * stencil.reach();
        let n = problem.n();
        let parts: Vec<Part> = decomp
            .regions()
            .into_iter()
            .map(|region| {
                let mut u = Grid2D::new(region.rows(), region.cols(), k);
                let mut next = Grid2D::new(region.rows(), region.cols(), k);
                fill_domain_boundary(&mut u, &region, problem);
                fill_domain_boundary(&mut next, &region, problem);
                Part { region, u, next }
            })
            .collect();
        Self {
            stencil: stencil.clone(),
            h2: problem.h() * problem.h(),
            forcing: problem.forcing().clone(),
            n,
            depth,
            copies,
            incoming,
            threads: parts.len().min(par::default_threads()),
            parts,
            iterations: 0,
            exchanges: 0,
        }
    }

    /// Sets how many threads each block's phases fan out over (at most
    /// one per partition does work). The partitions, not the threads,
    /// fix the arithmetic, so the iterates do not depend on this count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Number of partitions (the paper's processor count).
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Iterations performed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Halo-exchange rounds performed so far — the per-iteration overhead
    /// events the paper's model charges for; deep halos make
    /// `exchanges() ≪ iterations()`.
    pub fn exchanges(&self) -> usize {
        self.exchanges
    }

    /// Halo depth in sub-iterations (`1` for the classic executor).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Runs one iteration. Returns the global max update difference when
    /// `compute_diff` is set (the local convergence check of §4).
    pub fn iterate(&mut self, compute_diff: bool) -> Option<f64> {
        self.iterate_block(1, compute_diff)
    }

    /// Runs a block of `block ≤ depth` iterations on **one** halo
    /// exchange. Sub-iteration `j` sweeps each region expanded by
    /// `(block − j)·reach` (clamped to the domain): the expanded writes
    /// are redundant recomputations of neighbour-owned points from the
    /// same inputs the neighbour uses, so owned values after the block are
    /// bit-identical to `block` classic iterations. Returns the global
    /// max update difference of the *last* iteration when `compute_diff`
    /// is set.
    pub fn iterate_block(&mut self, block: usize, compute_diff: bool) -> Option<f64> {
        assert!(block >= 1, "blocks advance at least one iteration");
        assert!(
            block <= self.depth,
            "block of {block} exceeds halo depth {} — build with_depth({block}) or more",
            self.depth
        );
        // Phase 1: publish halo rectangles from the owners' current grids
        // (whole row segments at a time — no per-point indexing).
        let parts = &self.parts;
        let published: Vec<Vec<f64>> = par::map(&self.copies, self.threads, |c| {
            let src = &parts[c.src];
            let mut buf = Vec::with_capacity(c.src_region.area());
            let lc0 = c.src_region.c0 - src.region.c0;
            let lc1 = c.src_region.c1 - src.region.c0;
            for gr in c.src_region.r0..c.src_region.r1 {
                let row = src.u.interior_row(gr - src.region.r0);
                buf.extend_from_slice(&row[lc0..lc1]);
            }
            buf
        });

        // Phase 2: install halos, then run the whole block locally —
        // each partition touches only its own state.
        let copies = &self.copies;
        let incoming = &self.incoming;
        let stencil = &self.stencil;
        let forcing = &self.forcing;
        let h2 = self.h2;
        let n = self.n;
        let reach = stencil.reach();
        let diffs = par::map(self.parts.iter_mut().enumerate(), self.threads, |(i, part)| {
            for &ci in &incoming[i] {
                let c = &copies[ci];
                let buf = &published[ci];
                // Install each published rectangle row-wise into the
                // halo: one bounds-checked slice copy per row.
                let w = c.src_region.c1 - c.src_region.c0;
                let halo = part.u.halo() as isize;
                let j0 = (c.src_region.c0 as isize - part.region.c0 as isize + halo) as usize;
                for (i_row, gr) in (c.src_region.r0..c.src_region.r1).enumerate() {
                    let lr = gr as isize - part.region.r0 as isize;
                    let row = part.u.padded_row_mut(lr);
                    row[j0..j0 + w].copy_from_slice(&buf[i_row * w..(i_row + 1) * w]);
                }
            }
            let mut d = 0.0;
            for j in 1..=block {
                let e = (block - j) * reach;
                let sweep = Region {
                    r0: part.region.r0.saturating_sub(e),
                    r1: (part.region.r1 + e).min(n),
                    c0: part.region.c0.saturating_sub(e),
                    c1: (part.region.c1 + e).min(n),
                };
                jacobi_sweep_region(
                    stencil,
                    &part.u,
                    &mut part.next,
                    forcing,
                    h2,
                    &sweep,
                    (part.region.r0, part.region.c0),
                );
                if compute_diff && j == block {
                    d = part.u.max_abs_diff(&part.next);
                }
                part.u.swap(&mut part.next);
            }
            d
        });
        self.iterations += block;
        self.exchanges += 1;
        compute_diff.then(|| diffs.into_iter().fold(0.0, max_step))
    }

    /// Iterates until the max-norm update difference at a scheduled check
    /// falls below `tol`, or `max_iters` is reached.
    pub fn solve(&mut self, tol: f64, max_iters: usize, policy: CheckPolicy) -> SolveRun {
        let mut policy = policy;
        self.solve_scheduled(tol, max_iters, &mut policy)
    }

    /// [`solve`](Self::solve) with checkpoint/restart: a surviving
    /// snapshot for this solve's key restores every partition's owned
    /// interior and the global iteration/check counters (halos are
    /// republished from the restored owners on the first exchange, so
    /// resumption is bit-identical); checkpoint-scheduled check
    /// boundaries snapshot the assembled solution; a converged solve
    /// removes its entry. The second return is the iteration the solve
    /// resumed from (`None` when it started fresh).
    ///
    /// Must be called on a freshly built executor: the resume decision
    /// keys off `iterations() == 0`.
    pub fn solve_checkpointed(
        &mut self,
        tol: f64,
        max_iters: usize,
        policy: CheckPolicy,
        ctx: Option<CheckpointCtx<'_>>,
    ) -> (SolveRun, Option<usize>) {
        let mut resumed_from = None;
        let mut checks = 0usize;
        if let Some(ctx) = ctx {
            if self.iterations == 0 {
                if let Some(cp) = ctx.store.load(ctx.key) {
                    if cp.rows == self.n
                        && cp.cols == self.n
                        && cp.iteration > 0
                        && cp.iteration <= max_iters
                    {
                        self.restore(&cp);
                        checks = cp.checks;
                        resumed_from = Some(cp.iteration);
                        ctx.store.note_resume();
                    }
                }
            }
        }
        let mut diff = f64::INFINITY;
        // Fast-forward the check cursor: the schedule is a pure function
        // of the iteration count, so the resumed run checks at exactly
        // the iterations the uninterrupted run would have.
        let mut next_check = policy.first_check();
        let mut done = self.iterations;
        while next_check <= done {
            next_check = policy.next_check(next_check);
        }
        let mut checks_since_snapshot = 0usize;
        while done < max_iters {
            let target = next_check.min(max_iters).max(done + 1);
            let block = (target - done).min(self.depth);
            let at_check = done + block == target;
            let d = self.iterate_block(block, at_check);
            done += block;
            if let Some(d) = d {
                checks += 1;
                diff = d;
                if diff < tol {
                    if let Some(ctx) = ctx {
                        ctx.store.remove(ctx.key);
                    }
                    let run =
                        SolveRun { converged: true, iterations: done, checks, final_diff: diff };
                    return (run, resumed_from);
                }
                while next_check <= done {
                    next_check = policy.next_check(next_check);
                }
                if let Some(ctx) = ctx {
                    if done < max_iters {
                        checks_since_snapshot += 1;
                        if checks_since_snapshot >= ctx.policy.every {
                            checks_since_snapshot = 0;
                            let cp = Checkpoint::capture(&self.solution(), done, checks);
                            ctx.store.save(ctx.key, cp);
                        }
                    }
                }
            }
        }
        (SolveRun { converged: false, iterations: done, checks, final_diff: diff }, resumed_from)
    }

    /// Installs a snapshot: every partition's owned interior is written
    /// from the global grid and the iteration counter jumps to the
    /// boundary. Halo cells are left alone — the next exchange's
    /// publish phase reads the restored owners, so the first block after
    /// a resume sees exactly the halos the uninterrupted run saw.
    fn restore(&mut self, cp: &Checkpoint) {
        for part in &mut self.parts {
            let (r0, c0, c1) = (part.region.r0, part.region.c0, part.region.c1);
            for gr in r0..part.region.r1 {
                let src = &cp.interior[gr * cp.cols + c0..gr * cp.cols + c1];
                part.u.interior_row_mut(gr - r0).copy_from_slice(src);
            }
        }
        self.iterations = cp.iteration;
    }

    /// [`PartitionedJacobi::solve`] under any [`CheckScheduler`] —
    /// including the rate-estimating [`AdaptiveChecker`](crate::AdaptiveChecker)
    /// of §4's reference \[13\], which feeds observed differences back into
    /// the schedule.
    ///
    /// The gap until the next scheduled check is spent in
    /// [`PartitionedJacobi::iterate_block`]s of up to the halo depth, so a
    /// deep-halo executor exchanges once per block instead of once per
    /// iteration while checking at exactly the same iterations (and hence
    /// converging after exactly the same count) as a depth-1 run.
    pub fn solve_scheduled(
        &mut self,
        tol: f64,
        max_iters: usize,
        scheduler: &mut dyn CheckScheduler,
    ) -> SolveRun {
        let mut checks = 0usize;
        let mut diff = f64::INFINITY;
        let mut next_check = scheduler.first_check();
        let start = self.iterations;
        let mut done = 0usize;
        while done < max_iters {
            // Run to the next scheduled check (or the cap), in blocks the
            // halo depth can fund; only the block landing on the check
            // computes the reduction.
            let target = next_check.min(max_iters).max(done + 1);
            let block = (target - done).min(self.depth);
            let at_check = done + block == target;
            let d = self.iterate_block(block, at_check);
            done += block;
            if let Some(d) = d {
                checks += 1;
                diff = d;
                if diff < tol {
                    return SolveRun {
                        converged: true,
                        iterations: done,
                        checks,
                        final_diff: diff,
                    };
                }
                if done >= next_check {
                    next_check = scheduler.next_after(done, diff, tol);
                }
            }
        }
        debug_assert_eq!(self.iterations - start, done);
        SolveRun { converged: false, iterations: done, checks, final_diff: diff }
    }

    /// Assembles the global solution grid from the partitions.
    pub fn solution(&self) -> Grid2D {
        let mut g = Grid2D::new(self.n, self.n, 0);
        for part in &self.parts {
            for gr in part.region.r0..part.region.r1 {
                for gc in part.region.c0..part.region.c1 {
                    g.set(gr, gc, part.u.get(gr - part.region.r0, gc - part.region.c0));
                }
            }
        }
        g
    }
}

/// Fills the halo cells of a local grid that fall *outside the domain*
/// with the problem's boundary data. Halo cells inside the domain belong
/// to neighbours and are overwritten by the exchange each iteration.
fn fill_domain_boundary(g: &mut Grid2D, region: &Region, problem: &PoissonProblem) {
    let k = g.halo() as isize;
    let n = problem.n() as isize;
    let h = problem.h();
    let rows = g.rows() as isize;
    let cols = g.cols() as isize;
    for lr in -k..rows + k {
        for lc in -k..cols + k {
            let interior = lr >= 0 && lr < rows && lc >= 0 && lc < cols;
            if interior {
                continue;
            }
            let gr = region.r0 as isize + lr;
            let gc = region.c0 as isize + lc;
            if gr >= 0 && gr < n && gc >= 0 && gc < n {
                continue; // neighbour-owned: exchanged at runtime
            }
            let v = match problem.boundary() {
                Boundary::Const(v) => v,
                Boundary::Exact(m) => {
                    let x = (gc as f64 + 1.0) * h;
                    let y = (gr as f64 + 1.0) * h;
                    m.u(x, y)
                }
            };
            g.set_h(lr, lc, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parspeed_grid::{RectDecomposition, StripDecomposition};
    use parspeed_solver::{JacobiSolver, Manufactured};

    /// Sequential reference: plain Jacobi, fixed iteration count.
    fn sequential_after(problem: &PoissonProblem, stencil: &Stencil, iters: usize) -> Grid2D {
        let solver = JacobiSolver { tol: 0.0, max_iters: iters, ..Default::default() };
        let (u, status) = solver.solve(problem, stencil);
        assert_eq!(status.iterations, iters);
        u
    }

    fn assert_bitwise_equal(parallel: &Grid2D, sequential: &Grid2D, label: &str) {
        for r in 0..sequential.rows() {
            for c in 0..sequential.cols() {
                assert_eq!(
                    parallel.get(r, c),
                    sequential.get(r, c),
                    "{label}: mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn strips_match_sequential_bitwise() {
        let p = PoissonProblem::manufactured(24, Manufactured::SinSin);
        let s = Stencil::five_point();
        let d = StripDecomposition::new(24, 5);
        let mut exec = PartitionedJacobi::new(&p, &s, &d);
        for _ in 0..50 {
            exec.iterate(false);
        }
        let seq = sequential_after(&p, &s, 50);
        assert_bitwise_equal(&exec.solution(), &seq, "strips/5pt");
    }

    #[test]
    fn rect_blocks_with_corners_match_sequential_bitwise() {
        // The 9-point box needs corner halo cells: the plan must deliver
        // them or results drift immediately.
        let p = PoissonProblem::manufactured(24, Manufactured::Bubble);
        let s = Stencil::nine_point_box();
        let d = RectDecomposition::new(24, 3, 4);
        let mut exec = PartitionedJacobi::new(&p, &s, &d);
        for _ in 0..40 {
            exec.iterate(false);
        }
        let seq = sequential_after(&p, &s, 40);
        assert_bitwise_equal(&exec.solution(), &seq, "rect/9pt-box");
    }

    #[test]
    fn reach_two_star_matches_sequential_bitwise() {
        // k = 2: halo slabs span two owner partitions for thin strips.
        let p = PoissonProblem::manufactured(18, Manufactured::SinSin);
        let s = Stencil::nine_point_star();
        let d = StripDecomposition::new(18, 6);
        let mut exec = PartitionedJacobi::new(&p, &s, &d);
        for _ in 0..20 {
            exec.iterate(false);
        }
        let seq = sequential_after(&p, &s, 20);
        assert_bitwise_equal(&exec.solution(), &seq, "strips/9pt-star");
    }

    #[test]
    fn solve_matches_sequential_iteration_count() {
        let p = PoissonProblem::manufactured(16, Manufactured::SinSin);
        let s = Stencil::five_point();
        let d = StripDecomposition::new(16, 4);
        let mut exec = PartitionedJacobi::new(&p, &s, &d);
        let run = exec.solve(1e-8, 100_000, CheckPolicy::Every(1));
        let (_, seq) = JacobiSolver::with_tol(1e-8).solve(&p, &s);
        assert!(run.converged && seq.converged);
        assert_eq!(run.iterations, seq.iterations);
        assert_eq!(run.checks, run.iterations);
    }

    #[test]
    fn lazy_checking_overshoots_boundedly() {
        let p = PoissonProblem::manufactured(16, Manufactured::SinSin);
        let s = Stencil::five_point();
        let build = || PartitionedJacobi::new(&p, &s, &StripDecomposition::new(16, 4));
        let eager = build().solve(1e-8, 100_000, CheckPolicy::Every(1));
        let lazy = build().solve(1e-8, 100_000, CheckPolicy::Every(32));
        assert!(eager.converged && lazy.converged);
        assert!(lazy.iterations >= eager.iterations);
        assert!(lazy.iterations <= eager.iterations + 32);
        assert!(lazy.checks < eager.checks / 8, "{} vs {}", lazy.checks, eager.checks);
    }

    #[test]
    fn adaptive_scheduler_converges_with_minimal_checks() {
        use crate::AdaptiveChecker;
        let p = PoissonProblem::manufactured(24, Manufactured::SinSin);
        let s = Stencil::five_point();
        let build = || PartitionedJacobi::new(&p, &s, &StripDecomposition::new(24, 4));
        let eager = build().solve(1e-9, 100_000, CheckPolicy::Every(1));
        let mut adaptive = AdaptiveChecker::default();
        let run = build().solve_scheduled(1e-9, 100_000, &mut adaptive);
        assert!(run.converged);
        // The rate estimate must approximate Jacobi's spectral radius
        // cos(π/(n+1)) once the dominant mode governs the decay.
        let rho = (std::f64::consts::PI / 25.0).cos();
        let est = adaptive.estimated_rate().expect("rate observed");
        assert!((est - rho).abs() < 0.02, "estimated {est}, spectral {rho}");
        // Far fewer checks than eager, bounded overshoot.
        assert!(run.checks <= 12, "adaptive used {} checks", run.checks);
        assert!(run.iterations >= eager.iterations);
        assert!(run.iterations <= eager.iterations + eager.iterations / 5 + 64);
    }

    #[test]
    fn geometric_policy_uses_few_checks() {
        let p = PoissonProblem::manufactured(16, Manufactured::Bubble);
        let s = Stencil::five_point();
        let build = || PartitionedJacobi::new(&p, &s, &StripDecomposition::new(16, 2));
        let eager = build().solve(1e-8, 100_000, CheckPolicy::Every(1));
        let geo = build().solve(1e-8, 100_000, CheckPolicy::geometric());
        assert!(geo.converged);
        assert!(geo.checks < 30, "geometric used {} checks", geo.checks);
        assert!(geo.iterations < eager.iterations * 2);
    }

    #[test]
    fn deep_halo_blocks_match_sequential_bitwise() {
        // Mixed block sizes (3+3+2+1+3 = 12 iterations) over every
        // catalogue stencil: owned values must equal the classic loop's.
        for s in Stencil::catalog() {
            let p = PoissonProblem::manufactured(20, Manufactured::SinSin);
            let d = StripDecomposition::new(20, 4);
            let mut exec = PartitionedJacobi::with_depth(&p, &s, &d, 3);
            for block in [3usize, 3, 2, 1, 3] {
                exec.iterate_block(block, false);
            }
            assert_eq!(exec.iterations(), 12);
            assert_eq!(exec.exchanges(), 5);
            let seq = sequential_after(&p, &s, 12);
            assert_bitwise_equal(&exec.solution(), &seq, s.name());
        }
    }

    #[test]
    fn deep_halo_rect_blocks_match_sequential_bitwise() {
        // 2-D decomposition: deep corners matter even for the 5-point
        // cross (ghost sub-iterations reach diagonally).
        let p = PoissonProblem::manufactured(24, Manufactured::Bubble);
        let s = Stencil::five_point();
        let d = RectDecomposition::new(24, 3, 4);
        let mut exec = PartitionedJacobi::with_depth(&p, &s, &d, 4);
        for _ in 0..10 {
            exec.iterate_block(4, false);
        }
        let seq = sequential_after(&p, &s, 40);
        assert_bitwise_equal(&exec.solution(), &seq, "deep rect/5pt");
    }

    #[test]
    fn deep_solve_cuts_exchanges_at_identical_convergence() {
        let p = PoissonProblem::manufactured(16, Manufactured::SinSin);
        let s = Stencil::five_point();
        let d = || StripDecomposition::new(16, 4);
        let mut shallow = PartitionedJacobi::new(&p, &s, &d());
        let run1 = shallow.solve(1e-8, 100_000, CheckPolicy::Every(8));
        let mut deep = PartitionedJacobi::with_depth(&p, &s, &d(), 4);
        let run4 = deep.solve(1e-8, 100_000, CheckPolicy::Every(8));
        assert!(run1.converged && run4.converged);
        // Checks land on the same iterations, so convergence is identical…
        assert_eq!(run1.iterations, run4.iterations);
        assert_eq!(run1.checks, run4.checks);
        assert_eq!(run1.final_diff.to_bits(), run4.final_diff.to_bits());
        assert_bitwise_equal(&deep.solution(), &shallow.solution(), "deep vs shallow");
        // …while the deep run exchanged 4× less.
        assert_eq!(shallow.exchanges(), run1.iterations);
        assert_eq!(deep.exchanges() * 4, shallow.exchanges());
    }

    #[test]
    fn degenerate_thin_strips_with_deep_halos_stay_exact() {
        // Partition rows (2) ≪ depth·reach (8): expanded sweeps span
        // several neighbours and clamp at the domain edge.
        let p = PoissonProblem::manufactured(12, Manufactured::SinSin);
        let s = Stencil::nine_point_star();
        let d = StripDecomposition::new(12, 6);
        let mut exec = PartitionedJacobi::with_depth(&p, &s, &d, 4);
        for _ in 0..5 {
            exec.iterate_block(4, false);
        }
        let seq = sequential_after(&p, &s, 20);
        assert_bitwise_equal(&exec.solution(), &seq, "thin strips/9pt-star deep");
    }

    #[test]
    #[should_panic(expected = "exceeds halo depth")]
    fn blocks_deeper_than_the_halo_are_rejected() {
        let p = PoissonProblem::laplace(8, 0.0);
        let d = StripDecomposition::new(8, 2);
        let mut exec = PartitionedJacobi::new(&p, &Stencil::five_point(), &d);
        let _ = exec.iterate_block(2, false);
    }

    #[test]
    fn single_partition_degenerates_to_sequential() {
        let p = PoissonProblem::manufactured(12, Manufactured::SinSin);
        let s = Stencil::five_point();
        let d = StripDecomposition::new(12, 1);
        let mut exec = PartitionedJacobi::new(&p, &s, &d);
        for _ in 0..30 {
            exec.iterate(false);
        }
        let seq = sequential_after(&p, &s, 30);
        assert_bitwise_equal(&exec.solution(), &seq, "single");
    }

    #[test]
    fn checkpointed_partitioned_solves_resume_bit_identically() {
        use parspeed_solver::{CheckpointCtx, CheckpointPolicy, CheckpointStore};
        // Fixed-budget runs (tol 0 never converges) over every catalogue
        // stencil, shallow and deep halos: the first leg dies at its
        // budget, the second resumes from the surviving snapshot and must
        // match both the uninterrupted partitioned run and the sequential
        // solver, bit for bit.
        for s in Stencil::catalog() {
            let p = PoissonProblem::manufactured(16, Manufactured::SinSin);
            let d = StripDecomposition::new(16, 4);
            for depth in [1usize, 3] {
                let store = CheckpointStore::new(2);
                let ctx =
                    CheckpointCtx { store: &store, policy: CheckpointPolicy::every(1), key: 9 };
                let mut interrupted = PartitionedJacobi::with_depth(&p, &s, &d, depth);
                let (run1, from1) =
                    interrupted.solve_checkpointed(0.0, 17, CheckPolicy::Every(4), Some(ctx));
                assert!(!run1.converged);
                assert_eq!(from1, None);
                // Checks at 4, 8, 12, 16; the cap (17) takes no snapshot.
                assert_eq!(store.load(9).unwrap().iteration, 16);
                let mut resumed = PartitionedJacobi::with_depth(&p, &s, &d, depth);
                let (run2, from2) =
                    resumed.solve_checkpointed(0.0, 40, CheckPolicy::Every(4), Some(ctx));
                assert_eq!(from2, Some(16), "{} depth {depth}", s.name());
                assert_eq!(run2.iterations, 40);
                let mut clean = PartitionedJacobi::with_depth(&p, &s, &d, depth);
                let (run_ref, _) = clean.solve_checkpointed(0.0, 40, CheckPolicy::Every(4), None);
                assert_eq!(run2.checks, run_ref.checks, "{}", s.name());
                assert_eq!(run2.final_diff.to_bits(), run_ref.final_diff.to_bits());
                assert_bitwise_equal(&resumed.solution(), &clean.solution(), s.name());
                assert_bitwise_equal(&resumed.solution(), &sequential_after(&p, &s, 40), s.name());
            }
        }
    }

    #[test]
    fn checkpointed_converged_solve_cleans_up_and_matches_the_clean_run() {
        use parspeed_solver::{CheckpointCtx, CheckpointPolicy, CheckpointStore};
        // A 2-D decomposition with a deep halo, run to convergence:
        // interrupt halfway, resume, and demand the clean run's full
        // SolveRun (global iteration count, total check count, final
        // diff) plus the assembled grid, bitwise — then the store entry
        // is gone.
        let p = PoissonProblem::manufactured(24, Manufactured::Bubble);
        let s = Stencil::five_point();
        let d = RectDecomposition::new(24, 3, 2);
        let mut clean = PartitionedJacobi::with_depth(&p, &s, &d, 4);
        let (run_ref, _) = clean.solve_checkpointed(1e-8, 100_000, CheckPolicy::Every(8), None);
        assert!(run_ref.converged);

        let store = CheckpointStore::new(2);
        let ctx = CheckpointCtx { store: &store, policy: CheckpointPolicy::every(2), key: 3 };
        let cut = run_ref.iterations / 2;
        let mut interrupted = PartitionedJacobi::with_depth(&p, &s, &d, 4);
        let (run1, _) = interrupted.solve_checkpointed(1e-8, cut, CheckPolicy::Every(8), Some(ctx));
        assert!(!run1.converged);
        let saved = store.load(3).expect("snapshot survives");
        assert!(saved.iteration < cut);

        let mut resumed = PartitionedJacobi::with_depth(&p, &s, &d, 4);
        let (run2, from) =
            resumed.solve_checkpointed(1e-8, 100_000, CheckPolicy::Every(8), Some(ctx));
        assert_eq!(from, Some(saved.iteration));
        assert_eq!(run2, run_ref);
        assert_bitwise_equal(&resumed.solution(), &clean.solution(), "rect deep resume");
        assert!(store.load(3).is_none(), "converged solve must clean up");
        assert_eq!(store.resumes(), 1);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = PoissonProblem::manufactured(20, Manufactured::Bubble);
        let s = Stencil::nine_point_box();
        let d = RectDecomposition::new(20, 2, 2);
        let run = |iters: usize| {
            let mut e = PartitionedJacobi::new(&p, &s, &d);
            for _ in 0..iters {
                e.iterate(false);
            }
            e.solution()
        };
        let a = run(25);
        let b = run(25);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn iterate_reports_diff_only_when_asked() {
        let p = PoissonProblem::laplace(8, 1.0);
        let s = Stencil::five_point();
        let d = StripDecomposition::new(8, 2);
        let mut exec = PartitionedJacobi::new(&p, &s, &d);
        assert!(exec.iterate(false).is_none());
        let d1 = exec.iterate(true).unwrap();
        assert!(d1 > 0.0); // still relaxing towards the boundary constant
        assert_eq!(exec.iterations(), 2);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rejects_mismatched_decomposition() {
        let p = PoissonProblem::laplace(8, 0.0);
        let d = StripDecomposition::new(10, 2);
        let _ = PartitionedJacobi::new(&p, &Stencil::five_point(), &d);
    }
}
