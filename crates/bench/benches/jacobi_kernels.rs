//! Stencil sweep kernels: generic tap-driven vs fused row-slice vs
//! row-parallel, for all four catalogue stencils, plus the small-grid
//! solve a routed cache miss runs.
//!
//! The acceptance bar for PR 3 lives here: at n = 1024 the fused 9-point
//! and 13-point sweeps must be ≥ 3× the generic tap kernel single-thread
//! (`perf_snapshot` records the same comparison into `BENCH_PR3.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parspeed_engine::exec::evaluate;
use parspeed_engine::{Plan, Request, SolverKind};
use parspeed_grid::{Grid2D, Region};
use parspeed_solver::apply::{
    jacobi_sweep, jacobi_sweep_5pt, jacobi_sweep_blend, jacobi_sweep_par,
    jacobi_sweep_region_generic,
};
use parspeed_solver::{Manufactured, PoissonProblem};
use parspeed_stencil::Stencil;
use std::hint::black_box;

fn setup(n: usize, halo: usize) -> (Grid2D, Grid2D, Grid2D) {
    let mut src = Grid2D::from_fn(n, n, halo, |r, c| ((r * 31 + c * 17) % 97) as f64 * 0.01);
    src.fill_halo(0.5);
    let dst = Grid2D::new(n, n, halo);
    let f = Grid2D::from_fn(n, n, 0, |r, c| ((r + c) % 5) as f64);
    (src, dst, f)
}

fn bench_kernels(c: &mut Criterion) {
    for n in [256usize, 1024] {
        let mut g = c.benchmark_group(format!("jacobi_sweep_n{n}"));
        g.sample_size(10);
        g.measurement_time(std::time::Duration::from_millis(600));
        g.warm_up_time(std::time::Duration::from_millis(200));
        g.throughput(Throughput::Elements((n * n) as u64));

        for stencil in Stencil::catalog() {
            let halo = stencil.reach();
            let (src, mut dst, f) = setup(n, halo);
            let region = Region::new(0, n, 0, n);
            g.bench_function(BenchmarkId::new("generic", stencil.name()), |b| {
                b.iter(|| {
                    jacobi_sweep_region_generic(
                        &stencil,
                        black_box(&src),
                        &mut dst,
                        &f,
                        1e-4,
                        &region,
                        (0, 0),
                    )
                })
            });
            g.bench_function(BenchmarkId::new("fused", stencil.name()), |b| {
                b.iter(|| jacobi_sweep(&stencil, black_box(&src), &mut dst, &f, 1e-4))
            });
            g.bench_function(BenchmarkId::new("parallel", stencil.name()), |b| {
                b.iter(|| jacobi_sweep_par(&stencil, black_box(&src), &mut dst, &f, 1e-4))
            });
        }

        // The statically-typed 5-point fast path, for reference.
        let (src, mut dst, f) = setup(n, 1);
        g.bench_function(BenchmarkId::new("fused_static", "5-point"), |b| {
            b.iter(|| jacobi_sweep_5pt(black_box(&src), &mut dst, &f, 1e-4))
        });
        g.finish();
    }
}

/// The routed cache miss: a fixed-work Jacobi solve at n = 31 (5-point,
/// ω = 1, a convergence check after every sweep). Its three grids take
/// 25 112 B, so the sweep runs from L1 and its cost is compute and per-row
/// overhead, not memory traffic. `sweep` and `sweep+check` time one fused
/// pass without and with the max-norm reduction; `solve` times the whole
/// `exec::evaluate` of a 230-sweep key (setup, sweeps and error norm).
fn bench_small_grid_miss(c: &mut Criterion) {
    let n = 31;
    let mut g = c.benchmark_group("jacobi_miss_n31");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_millis(600));
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.throughput(Throughput::Elements((n * n) as u64));
    let s = Stencil::five_point();
    let p = PoissonProblem::manufactured(n, Manufactured::SinSin);
    let h2 = p.h() * p.h();
    let src = p.initial_grid(1);
    let mut dst = p.initial_grid(1);
    for (name, check) in [("sweep", false), ("sweep+check", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                jacobi_sweep_blend(&s, black_box(&src), &mut dst, p.forcing(), h2, 1.0, check)
            })
        });
    }
    let sweeps = 230;
    let query = Request::solve(n).solver(SolverKind::Jacobi).tol(1e-300).max_iters(sweeps).query();
    let key = Plan::build(&[query]).unique[0];
    g.throughput(Throughput::Elements((n * n * sweeps) as u64));
    g.bench_function("solve", |b| b.iter(|| evaluate(black_box(&key))));
    g.finish();
}

criterion_group!(benches, bench_kernels, bench_small_grid_miss);
criterion_main!(benches);
