//! Convergence-check reductions: sequential vs row-parallel norms — the real
//! cost behind the paper's §4 "local check" term.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parspeed_grid::Grid2D;
use parspeed_solver::norms::{l2, l2_par, linf, linf_diff_par, linf_par};
use std::hint::black_box;

fn bench_norms(c: &mut Criterion) {
    let mut g = c.benchmark_group("norms");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_millis(500));
    g.warm_up_time(std::time::Duration::from_millis(200));
    for n in [256usize, 512] {
        let a = Grid2D::from_fn(n, n, 1, |r, c| ((r * 13 + c * 7) % 101) as f64 * 0.01);
        let b = Grid2D::from_fn(n, n, 1, |r, c| ((r * 13 + c * 7) % 101) as f64 * 0.01 + 1e-9);
        g.throughput(Throughput::Elements((n * n) as u64));
        g.bench_function(BenchmarkId::new("linf_seq", n), |bch| bch.iter(|| linf(black_box(&a))));
        g.bench_function(BenchmarkId::new("linf_par", n), |bch| {
            bch.iter(|| linf_par(black_box(&a)))
        });
        g.bench_function(BenchmarkId::new("l2_seq", n), |bch| bch.iter(|| l2(black_box(&a))));
        g.bench_function(BenchmarkId::new("l2_par", n), |bch| bch.iter(|| l2_par(black_box(&a))));
        g.bench_function(BenchmarkId::new("linf_diff_par", n), |bch| {
            bch.iter(|| linf_diff_par(black_box(&a), black_box(&b)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_norms);
criterion_main!(benches);
