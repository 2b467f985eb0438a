//! The traced run: the per-tier ledger and the direct layer timings.
//!
//! Each workload's request stream is replayed through five tiers, and a
//! tier's self time is the difference of adjacent rows (µs per request):
//!
//! | tier | what runs                                                  |
//! |------|------------------------------------------------------------|
//! | T0   | `engine::exec::evaluate` per atom (the core call, no cache) |
//! | T1   | `Engine::run_batch`, in batches of the observed fill       |
//! | T2   | the in-process `Server::client()`, same credit             |
//! | T3   | the server over TCP                                        |
//! | T4   | the router over TCP (`Router::start_with`)                 |
//!
//! A negative self time means the tier saves more than it costs (the
//! engine's cache and dedup, for instance). Spans are recorded only here,
//! around calls into each layer's public functions; they stay in memory
//! and are written out as JSONL when the run ends.

use crate::drive::{self, Conn, Expect, Outcome};
use crate::gen::{self, Req, Stream, Workload};
use crate::{metric, Metric, Report};
use parspeed_engine::jsonl::{self, Json};
use parspeed_engine::{exec, Engine, EvalKey, Plan, Query, SolverKind};
use parspeed_exec::{CheckPolicy, PartitionedJacobi};
use parspeed_grid::{Grid2D, StripDecomposition};
use parspeed_router::{Router, RouterConfig};
use parspeed_server::{Server, ServerConfig};
use parspeed_solver::apply::{jacobi_sweep, jacobi_sweep_par};
use parspeed_solver::{Manufactured, PoissonProblem};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per connection in a ledger replay: enough that each tier
/// runs for a fraction of a second, few enough that T0 (no cache) stays
/// short.
fn ledger_len(workload: Workload) -> usize {
    match workload {
        Workload::MixHot => 10_000,
        // One full deck: a fixed composition, so the iteration sum is an
        // exact count whatever the seed.
        Workload::SolveCold => gen::solve_deck().len(),
        Workload::RouteSpread => 2_000,
    }
}

/// Seconds of each traced/untraced end-to-end pair behind
/// `trace.overhead_frac`.
const OVERHEAD_SECONDS: u64 = 4;
/// Minimum wall time of each direct kernel timing.
const KERNEL_SECONDS: f64 = 0.2;
/// Halo depth of the partitioned executor, as the engine runs it.
const PARTITION_DEPTH: usize = 4;

/// One span: a call into a layer, or a group of them.
struct Span {
    name: String,
    parent: usize,
    start: Instant,
    end: Instant,
}

/// In-memory spans, written out as JSONL when the run ends. Span ids are
/// 1-based positions; parent 0 is the run itself.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Records a span; returns its id.
    fn push(&mut self, name: &str, parent: usize, start: Instant, end: Instant) -> usize {
        self.spans.push(Span { name: name.to_string(), parent, start, end });
        self.spans.len()
    }

    /// Opens a span that [`close`](Tracer::close) ends.
    fn open(&mut self, name: &str, parent: usize) -> usize {
        let now = Instant::now();
        self.push(name, parent, now, now)
    }

    fn close(&mut self, id: usize) {
        self.spans[id - 1].end = Instant::now();
    }

    /// Times `f` as one span.
    fn span<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> (T, usize, f64) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        let span = &self.spans[id - 1];
        (out, id, span.end.duration_since(span.start).as_secs_f64())
    }

    /// Records one span per request of `out` under `parent`.
    fn requests(&mut self, name: &str, parent: usize, out: &Outcome) {
        for &(start, end) in &out.spans {
            self.push(name, parent, start, end);
        }
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                file,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.name,
                ns(s.start),
                ns(s.end)
            )?;
        }
        file.flush()
    }
}

/// One workload replayed through the five tiers.
struct Ledger {
    /// µs per request at T0..T4.
    tier_us: [f64; 5],
    /// `Plan::build` ns per query over T1's batches.
    plan_ns_per_query: f64,
    /// Atoms per unique key over T1's batches.
    dedup_factor: f64,
    /// `evaluate_all` busy ms per key T1 had to evaluate (a cache miss).
    exec_ms_per_miss: f64,
    /// `stats`-op deltas over T3's timed phase.
    server: ServerCounts,
    /// What the T4 fleet reported.
    fleet: Fleet,
    /// Sum of reply `iterations` at T3 (solves only).
    iterations: u64,
    /// Every verified reply of T1..T4.
    outcome: Outcome,
}

struct ServerCounts {
    batches: f64,
    batched: f64,
    cross_client_dedup_hits: f64,
}

struct Fleet {
    resident: Vec<f64>,
    retries: f64,
    failovers: f64,
    hit_frac: f64,
    evictions: u64,
}

/// The engine each tier serves `workload` with; `shard` asks for one
/// member of the `route-spread` fleet rather than the single server,
/// which gets the whole fleet's cache.
fn engine_for(workload: Workload, shard: bool) -> Arc<Engine> {
    Arc::new(match workload {
        Workload::RouteSpread => {
            let shards = if shard { 1 } else { gen::SPREAD_SHARDS };
            Engine::builder().cache_capacity(gen::SPREAD_CAPACITY * shards).build()
        }
        _ => Engine::default(),
    })
}

fn router_config(workload: Workload) -> RouterConfig {
    match workload {
        Workload::RouteSpread => {
            RouterConfig { shards: gen::SPREAD_SHARDS, ..RouterConfig::default() }
        }
        _ => RouterConfig::default(),
    }
}

/// The ledger's per-connection request lists.
fn streams(workload: Workload, seed: u64) -> Vec<Vec<Req>> {
    let conns = drive::connection_count();
    (0..conns)
        .map(|c| {
            let mut s = Stream::new(workload, seed, c, conns);
            (0..ledger_len(workload)).map(|_| s.next_req()).collect()
        })
        .collect()
}

/// The lists interleaved, as a single arrival order.
fn interleave(lists: &[Vec<Req>]) -> Vec<&Req> {
    let len = lists.iter().map(Vec::len).max().unwrap_or(0);
    (0..len).flat_map(|i| lists.iter().filter_map(move |l| l.get(i))).collect()
}

fn warm_queries(workload: Workload) -> Vec<Query> {
    gen::warmup(workload).into_iter().map(|r| r.query).collect()
}

fn us_per_req(seconds: f64, requests: usize) -> f64 {
    seconds * 1e6 / requests.max(1) as f64
}

/// Closed-loop replay of `reqs` through an in-process server client.
fn drive_client(
    client: &parspeed_server::Client,
    reqs: &[Req],
    credit: usize,
    expect: &Expect,
) -> Outcome {
    let mut out = Outcome::default();
    let mut inflight = VecDeque::with_capacity(credit);
    let mut next = reqs.iter();
    loop {
        while inflight.len() < credit {
            let Some(req) = next.next() else { break };
            out.attempted += 1;
            inflight.push_back((Instant::now(), req));
            client.submit(req.query.clone());
        }
        let Some((sent, req)) = inflight.pop_front() else { return out };
        let (_, response) = client.recv();
        let at = Instant::now();
        out.spans.push((sent, at));
        out.end = Some(at);
        out.check(expect, req, &jsonl::render_response(&req.query, &response, 2, 0));
    }
}

/// Tier `name`: the `lists` over TCP to `addr`, one connection (and
/// thread) each, as one span with a child span per request. Returns the
/// connections (still open), the outcome, and the tier's wall seconds.
fn tier_tcp(
    tracer: &mut Tracer,
    name: &str,
    parent: usize,
    addr: std::net::SocketAddr,
    lists: &[Vec<Req>],
    credit: usize,
    expect: &Expect,
) -> Result<(Vec<Conn>, Outcome, f64), String> {
    let mut conns = lists
        .iter()
        .map(|_| Conn::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let (out, id, secs) = tracer.span(name, parent, || {
        let mut out = Outcome::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(lists)
                .map(|(conn, list)| {
                    s.spawn(move || {
                        let mut it = list.iter().cloned();
                        drive::drive(conn, &mut || it.next(), credit, expect, true)
                    })
                })
                .collect();
            for h in handles {
                out.merge(h.join().expect("connection driver panicked"));
            }
        });
        out
    });
    tracer.requests(&format!("{name}.request"), id, &out);
    Ok((conns, out, secs))
}

fn num(v: &Json, path: &[&str]) -> f64 {
    path.iter().try_fold(v, |v, k| v.get(k)).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn replay(workload: Workload, seed: u64, tracer: &mut Tracer) -> Result<Ledger, String> {
    let expect = Expect::for_workload(workload);
    let credit = workload.credit();
    let lists = streams(workload, seed);
    let arrival = interleave(&lists);
    let total = arrival.len();
    let root = tracer.open(&format!("ledger.{}", workload.name()), 0);
    let mut tier_us = [0.0; 5];
    let mut outcome = Outcome::default();

    // T0: the core call per atom, planned outside the timed span.
    let keys: Vec<Vec<EvalKey>> =
        arrival.iter().map(|r| Plan::build(std::slice::from_ref(&r.query)).unique).collect();
    let (_, _, secs) = tracer.span("T0", root, || {
        for atoms in &keys {
            for key in atoms {
                let _ = black_box(exec::evaluate(key));
            }
        }
    });
    tier_us[0] = us_per_req(secs, total);

    // T2 first: it measures the batch fill T1 then uses.
    let server = Server::start(engine_for(workload, false), ServerConfig::default());
    {
        let warm = server.client();
        for q in warm_queries(workload) {
            warm.call(q);
        }
    }
    let before = server.stats();
    let clients: Vec<_> = lists.iter().map(|_| server.client()).collect();
    let (t2_out, t2_id, t2_secs) = tracer.span("T2", root, || {
        let mut out = Outcome::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter()
                .zip(&lists)
                .map(|(c, list)| s.spawn(|| drive_client(c, list, credit, &expect)))
                .collect();
            for h in handles {
                out.merge(h.join().expect("client driver panicked"));
            }
        });
        out
    });
    let after = server.stats();
    drop(clients);
    server.shutdown();
    tracer.requests("T2.request", t2_id, &t2_out);
    tier_us[2] = us_per_req(t2_secs, total);
    let fill = ((after.batched_requests - before.batched_requests) as f64
        / (after.batches - before.batches).max(1) as f64)
        .round()
        .max(1.0) as usize;
    outcome.merge(t2_out);

    // T1: the engine alone, in batches of that fill. Which keys miss is
    // read between batches, outside the spans.
    let engine = engine_for(workload, false);
    engine.run_batch(&warm_queries(workload));
    let t1_root = tracer.open("T1", root);
    let mut t1_secs = 0.0;
    let mut misses: Vec<EvalKey> = Vec::new();
    let mut t1_out = Outcome::default();
    for batch in arrival.chunks(fill) {
        let queries: Vec<Query> = batch.iter().map(|r| r.query.clone()).collect();
        let mut batch_misses: Vec<EvalKey> = Vec::new();
        for q in queries.iter().filter(|q| !engine.is_cached(q)) {
            for key in Plan::build(std::slice::from_ref(q)).unique {
                if !batch_misses.contains(&key) {
                    batch_misses.push(key);
                }
            }
        }
        misses.extend(batch_misses);
        let (out, _, secs) = tracer.span("T1.run_batch", t1_root, || engine.run_batch(&queries));
        t1_secs += secs;
        for (req, response) in batch.iter().zip(&out.responses) {
            t1_out.attempted += 1;
            t1_out.check(&expect, req, &jsonl::render_response(&req.query, response, 2, 0));
        }
    }
    tracer.close(t1_root);
    tier_us[1] = us_per_req(t1_secs, total);
    outcome.merge(t1_out);
    let batches: Vec<Vec<Query>> =
        arrival.chunks(fill).map(|b| b.iter().map(|r| r.query.clone()).collect()).collect();
    let plan_s = per_call(tracer, "engine.plan", || {
        for batch in &batches {
            black_box(Plan::build(batch));
        }
    });
    let (plan_atoms, plan_unique) = batches.iter().fold((0, 0), |(a, u), b| {
        let p = Plan::build(b);
        (a + p.atoms, u + p.unique.len())
    });
    let (_, _, exec_secs) =
        tracer.span("engine.evaluate_all", root, || black_box(exec::evaluate_all(&misses, None)));
    let exec_ms_per_miss =
        if misses.is_empty() { 0.0 } else { exec_secs * 1e3 / misses.len() as f64 };

    // T3: the same server over TCP.
    let mut server = Server::start(engine_for(workload, false), ServerConfig::default());
    let addr = server.listen(("127.0.0.1", 0)).map_err(|e| format!("listen: {e}"))?;
    let mut probe = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    outcome.merge(drive::drive_list(&mut probe, gen::warmup(workload), credit, &expect));
    let stats0 = probe.op("stats").map_err(|e| e.to_string())?;
    let (conns, t3_out, t3_secs) = tier_tcp(tracer, "T3", root, addr, &lists, credit, &expect)?;
    let stats1 = probe.op("stats").map_err(|e| e.to_string())?;
    drop(conns);
    drop(probe);
    server.shutdown();
    let iterations = t3_out.iterations;
    tier_us[3] = us_per_req(t3_secs, total);
    let delta = |k: &str| num(&stats1, &[k]) - num(&stats0, &[k]);
    let server_counts = ServerCounts {
        batches: delta("batches"),
        batched: delta("batched_requests"),
        cross_client_dedup_hits: delta("cross_client_dedup_hits"),
    };
    outcome.merge(t3_out);

    // T4: the router over TCP, its shard engines kept for their counters.
    let engines: Arc<std::sync::Mutex<Vec<Arc<Engine>>>> = Arc::default();
    let kept = Arc::clone(&engines);
    let mut router = Router::start_with(router_config(workload), move |_| {
        let e = engine_for(workload, true);
        kept.lock().expect("engine list lock").push(Arc::clone(&e));
        e
    });
    let addr = router.listen(("127.0.0.1", 0)).map_err(|e| format!("listen: {e}"))?;
    let mut probe = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    outcome.merge(drive::drive_list(&mut probe, gen::warmup(workload), credit, &expect));
    let (conns, t4_out, t4_secs) = tier_tcp(tracer, "T4", root, addr, &lists, credit, &expect)?;
    let topology = probe.op("topology").map_err(|e| e.to_string())?;
    let metrics = probe.op("metrics").map_err(|e| e.to_string())?;
    drop(conns);
    drop(probe);
    let shard_stats = router.shutdown();
    tracer.close(root);
    tier_us[4] = us_per_req(t4_secs, total);
    outcome.merge(t4_out);
    let (hits, unique) =
        shard_stats.iter().fold((0u64, 0u64), |(h, u), (_, s)| (h + s.cache_hits, u + s.unique));
    let fleet = Fleet {
        resident: topology
            .get("resident")
            .and_then(Json::as_arr)
            .map(|r| r.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default(),
        retries: num(&metrics, &["resilience", "retries"]),
        failovers: num(&metrics, &["resilience", "failovers"]),
        hit_frac: hits as f64 / unique.max(1) as f64,
        evictions: engines
            .lock()
            .expect("engine list lock")
            .iter()
            .map(|e| e.cache_stats().evictions)
            .sum(),
    };
    Ok(Ledger {
        tier_us,
        plan_ns_per_query: plan_s * 1e9 / total as f64,
        dedup_factor: plan_atoms as f64 / plan_unique.max(1) as f64,
        exec_ms_per_miss,
        server: server_counts,
        fleet,
        iterations,
        outcome,
    })
}

/// Times `f` repeatedly for at least [`KERNEL_SECONDS`]; returns seconds
/// per call.
fn per_call(tracer: &mut Tracer, name: &str, mut f: impl FnMut()) -> f64 {
    let ((calls, secs), _, _) = tracer.span(name, 0, || {
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed().as_secs_f64() < KERNEL_SECONDS {
            f();
            calls += 1;
        }
        (calls, t0.elapsed().as_secs_f64())
    });
    secs / calls as f64
}

/// The distinct items of `items`, in first-seen order.
fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// Direct kernel, executor, core and codec timings.
fn layer_timings(tracer: &mut Tracer, seed: u64, metrics: &mut Vec<Metric>) {
    let deck = gen::solve_deck();
    // Jacobi sweeps at the sizes and stencils solve-cold sweeps them,
    // serial and row-parallel.
    let sweeps = distinct(
        deck.iter()
            .filter(|e| matches!(e.0, SolverKind::Jacobi | SolverKind::Parallel))
            .map(|e| (e.1, e.2)),
    );
    let (mut points, mut serial, mut par, mut flops, mut bytes) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &(n, spec) in &sweeps {
        let stencil = spec.to_stencil().expect("catalog stencil");
        let problem = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let h2 = problem.h() * problem.h();
        let mut src = problem.initial_grid(stencil.reach());
        let mut dst: Grid2D = src.clone();
        let f = problem.forcing();
        serial += per_call(tracer, "solver.jacobi_sweep", || {
            jacobi_sweep(&stencil, &src, &mut dst, f, h2);
            std::mem::swap(&mut src, &mut dst);
        });
        par += per_call(tracer, "solver.jacobi_sweep_par", || {
            jacobi_sweep_par(&stencil, &src, &mut dst, f, h2);
            std::mem::swap(&mut src, &mut dst);
        });
        points += (n * n) as f64;
        flops += stencil.flops_per_point();
        let words = src.as_slice().len() + dst.as_slice().len() + f.as_slice().len();
        bytes += (words * 8) as f64 / (n * n) as f64;
    }
    let cases = sweeps.len() as f64;
    metrics.push(metric("solver.sweep_mpts", points / serial / 1e6, "Mpt/s"));
    metrics.push(metric("solver.sweep_par_mpts", points / par / 1e6, "Mpt/s"));
    metrics.push(metric("solver.par_over_serial", par / serial, "ratio"));
    metrics.push(metric("stencil.flops_per_point", flops / cases, "flop"));
    metrics.push(metric("solver.bytes_per_point_computed", bytes / cases, "B"));

    // The partitioned executor on solve-cold's `parallel` keys.
    let keys =
        distinct(deck.iter().filter(|e| e.0 == SolverKind::Parallel).map(|e| (e.1, e.2, e.3)));
    let mut solves = 0.0;
    for &(n, spec, tol) in &keys {
        let stencil = spec.to_stencil().expect("catalog stencil");
        let problem = PoissonProblem::manufactured(n, Manufactured::SinSin);
        let decomp = StripDecomposition::new(n, 4);
        solves += per_call(tracer, "exec.partitioned_jacobi", || {
            let mut exec =
                PartitionedJacobi::with_depth(&problem, &stencil, &decomp, PARTITION_DEPTH);
            black_box(exec.solve(tol, 100_000, CheckPolicy::geometric()));
        });
    }
    metrics.push(metric("exec.partitioned_ms_per_solve", solves * 1e3 / keys.len() as f64, "ms"));

    // The core optimizer on route-spread's optimize keys (its misses).
    let optimize_keys: Vec<EvalKey> = gen::universe(Workload::RouteSpread)
        .iter()
        .filter(|q| matches!(q, Query::Optimize { .. }))
        .flat_map(|q| Plan::build(std::slice::from_ref(q)).unique)
        .collect();
    let per_pass = per_call(tracer, "core.optimize", || {
        for key in &optimize_keys {
            let _ = black_box(exec::evaluate(key));
        }
    });
    metrics.push(metric("core.optimize_ns", per_pass * 1e9 / optimize_keys.len() as f64, "ns"));

    // The codec on mix-hot's stream.
    let lines: Vec<Req> = {
        let mut s = Stream::new(Workload::MixHot, seed, 0, 1);
        (0..4096).map(|_| s.next_req()).collect()
    };
    let queries: Vec<Query> = lines.iter().map(|r| r.query.clone()).collect();
    let parse_s = per_call(tracer, "jsonl.parse_query", || {
        for r in &lines {
            black_box(jsonl::parse_query(r.line.trim_end()).is_ok());
        }
    });
    let responses = Engine::default().run_batch(&queries).responses;
    let render_s = per_call(tracer, "jsonl.render_response", || {
        for (q, resp) in queries.iter().zip(&responses) {
            black_box(jsonl::render_response(q, resp, 2, 0));
        }
    });
    metrics.push(metric("jsonl.parse_ns_per_line", parse_s * 1e9 / lines.len() as f64, "ns"));
    metrics.push(metric("jsonl.render_ns_per_reply", render_s * 1e9 / lines.len() as f64, "ns"));
}

/// The traced run for `workload`: the traced/untraced end-to-end pair,
/// then the ledger over every workload's stream and the layer timings.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let bin = crate::parspeed_bin()?;
    let mut tracer = Tracer { epoch: Instant::now(), spans: Vec::new() };
    let expect = Expect::for_workload(workload);
    let secs = Duration::from_secs(seconds.min(OVERHEAD_SECONDS)).as_secs_f64();
    let plain = drive::end_to_end(&bin, workload, seed, secs, 1, &expect, false)?;
    let (traced, e2e_root, _) = tracer.span(&format!("e2e.{}", workload.name()), 0, || {
        drive::end_to_end(&bin, workload, seed, secs, 1, &expect, true)
    });
    let traced = traced?;
    tracer.requests("e2e.request", e2e_root, &traced.outcome);
    let within_host = plain.within_host() && traced.within_host();

    let mut metrics = vec![
        metric(
            "trace.overhead_frac",
            plain.throughput_rps() / traced.throughput_rps() - 1.0,
            "fraction",
        ),
        metric("loadgen.cpu_frac", plain.loadgen_cpu_frac(), "fraction"),
        metric("host.nproc", drive::host_cpus() as f64, "count"),
    ];
    let mut outcome = Outcome::default();
    outcome.merge(plain.outcome);
    outcome.merge(traced.outcome);
    for w in Workload::ALL {
        let l = replay(w, seed, &mut tracer)?;
        for (k, us) in l.tier_us.iter().enumerate() {
            metrics.push(metric(format!("ledger.{}.t{k}_us", w.name()), *us, "us"));
        }
        let t = l.tier_us;
        match w {
            Workload::MixHot => {
                metrics.push(metric("engine.self_us_per_req", t[1] - t[0], "us"));
                metrics.push(metric("server.self_us_per_req", t[2] - t[1], "us"));
                metrics.push(metric("eventloop.self_us_per_req", t[3] - t[2], "us"));
                metrics.push(metric("engine.plan_ns_per_query", l.plan_ns_per_query, "ns"));
                metrics.push(metric("engine.dedup_factor", l.dedup_factor, "ratio"));
                metrics.push(metric("server.batches", l.server.batches, "count"));
                metrics.push(metric(
                    "server.avg_batch_fill",
                    l.server.batched / l.server.batches.max(1.0),
                    "count",
                ));
                metrics.push(metric(
                    "server.cross_client_dedup_hits",
                    l.server.cross_client_dedup_hits,
                    "count",
                ));
            }
            Workload::SolveCold => {
                metrics.push(metric("solver.iterations", l.iterations as f64, "count"));
                metrics.push(metric("engine.exec_ms.solve-cold", l.exec_ms_per_miss, "ms"));
            }
            Workload::RouteSpread => {
                let f = &l.fleet;
                let mean = f.resident.iter().sum::<f64>() / f.resident.len().max(1) as f64;
                let max = f.resident.iter().copied().fold(0.0, f64::max);
                metrics.push(metric("router.self_us_per_req", t[4] - t[3], "us"));
                metrics.push(metric("router.resident_mean", mean, "count"));
                metrics.push(metric("router.resident_max", max, "count"));
                metrics.push(metric("router.resident_max_over_mean", max / mean, "ratio"));
                metrics.push(metric("router.retries", f.retries, "count"));
                metrics.push(metric("router.failovers", f.failovers, "count"));
                metrics.push(metric("engine.cache_hit_frac", f.hit_frac, "fraction"));
                metrics.push(metric("engine.cache_evictions", f.evictions as f64, "count"));
                metrics.push(metric("engine.exec_ms.route-spread", l.exec_ms_per_miss, "ms"));
            }
        }
        outcome.merge(l.outcome);
    }
    layer_timings(&mut tracer, seed, &mut metrics);

    let dir = PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()));
    let path = dir.join(format!("perfbench-trace-{}-{seed}.jsonl", workload.name()));
    tracer.write(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: {} spans written to {}", tracer.spans.len(), path.display());
    let retries_clean = metrics
        .iter()
        .filter(|m| m.name == "router.retries" || m.name == "router.failovers")
        .all(|m| m.value == 0.0);
    Ok(Report {
        correct: outcome.failed() == 0 && within_host && retries_clean,
        attempted: outcome.attempted,
        failed: outcome.failed(),
        metrics,
    })
}
