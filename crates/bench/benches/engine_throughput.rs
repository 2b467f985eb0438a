//! Engine throughput: a 10k-query mixed-kind batch with heavy duplication
//! through the naive sequential per-query loop vs. the batched engine
//! (dedup + cache + parallel fan-out of misses), plus the steady-state warm-cache
//! path. Since the service redesign the batch mixes every cacheable query
//! kind — optimizer points plus `table1`, `compare`, `minsize`, `isoeff`,
//! `leverage`, `simulate`, and `solve`. The acceptance bar for this
//! workload is engine ≥ 4× naive at equal (bit-identical) answers; in
//! practice dedup alone buys the batch far more.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use parspeed_engine::{eval_naive, Engine};
use std::hint::black_box;

const BATCH: usize = 10_000;

fn bench_engine_vs_naive(c: &mut Criterion) {
    let batch = parspeed_engine::workloads::mixed_batch(BATCH);

    // Headline comparison, printed before the per-path timings: one
    // measured naive pass vs one cold engine pass, with the identity of
    // the answers checked on the spot.
    let t0 = std::time::Instant::now();
    let naive = eval_naive(&batch);
    let naive_secs = t0.elapsed().as_secs_f64();
    let engine = Engine::builder().build();
    let t1 = std::time::Instant::now();
    let out = engine.run_batch(&batch);
    let engine_secs = t1.elapsed().as_secs_f64();
    assert_eq!(out.responses, naive, "engine must be bit-identical to the naive loop");
    println!(
        "engine_throughput: {} queries ({} unique, {:.0}× dedup) — naive {:.2} ms, \
         engine cold {:.2} ms → {:.1}× ; telemetry: {}",
        BATCH,
        out.telemetry.unique,
        out.telemetry.dedup_factor(),
        naive_secs * 1e3,
        engine_secs * 1e3,
        naive_secs / engine_secs,
        out.telemetry,
    );

    let mut g = c.benchmark_group("engine_throughput");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_millis(1500));
    g.warm_up_time(std::time::Duration::from_millis(200));
    g.throughput(Throughput::Elements(BATCH as u64));

    g.bench_function("naive_sequential_loop", |b| b.iter(|| eval_naive(black_box(&batch))));
    g.bench_function("engine_cold_cache", |b| {
        // A fresh engine per iteration: measures plan + dedup + parallel
        // evaluation with no carried-over cache.
        b.iter(|| Engine::builder().build().run_batch(black_box(&batch)))
    });
    let warm = Engine::builder().build();
    warm.run_batch(&batch);
    g.bench_function("engine_warm_cache", |b| {
        // Steady-state serving: every unique key is already cached.
        b.iter(|| warm.run_batch(black_box(&batch)))
    });
    g.finish();
}

criterion_group!(benches, bench_engine_vs_naive);
criterion_main!(benches);
