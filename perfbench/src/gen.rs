//! The seeded workload generator: each workload's request stream as
//! wire-v2 JSONL lines, and the query universes the byte-for-byte
//! references are computed from.
//!
//! A stream is a pure function of `(workload, seed, connection)`. The
//! seed picks the order and the per-request draws; the *composition* of
//! every workload is fixed in blocks ("decks"), so two seeds ask for the
//! same amount of work and their end-to-end figures are comparable.

use parspeed_engine::jsonl::{self, Json};
use parspeed_engine::workloads::mixed_batch;
use parspeed_engine::{
    ArchKind, MachineSpec, Query, Request, SolverKind, StencilSpec, WorkloadSpec,
};

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is below 2⁻⁵⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Duplicated mixed traffic over a warm cache: every request is a hit.
    MixHot,
    /// Distinct Poisson solves: every request misses and runs a solver.
    SolveCold,
    /// Skewed keys over a capacity-limited routed fleet: hits, misses,
    /// insertions and evictions side by side.
    RouteSpread,
}

/// Shards of the `route-spread` fleet.
pub const SPREAD_SHARDS: usize = 4;
/// `--cache-capacity` of each `route-spread` shard: 4 entries per cache
/// shard over the engine's 16 cache shards, far below the key pool.
pub const SPREAD_CAPACITY: usize = 64;
/// Distinct keys of the `route-spread` pool.
pub const SPREAD_KEYS: usize = 1024;
/// Zipf exponent of the `route-spread` key draw.
const SPREAD_ZIPF: f64 = 1.0;

/// Largest `max_error` a `solve-cold` reply may report: the sin·sin
/// discretization error at the deck's sizes, with margin (the worst case
/// at HEAD is 6.4e-3, 9-point box at n = 15).
pub const SOLVE_MAX_ERROR: f64 = 1e-2;
/// One `solve-cold` reply in this many is also compared byte for byte
/// with the in-process engine.
const SOLVE_SAMPLE_ONE_IN: usize = 16;
/// `max_iters` of measured solves starts here; every request adds its own
/// id, so no key ever repeats (converged solves never reach the cap, so
/// the answer does not depend on it).
const SOLVE_ID_BASE: usize = 100_000;
/// Warm-up solves take ids from a range the measured ones never reach.
const SOLVE_WARM_BASE: usize = 50_000;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::MixHot, Workload::SolveCold, Workload::RouteSpread];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::MixHot => "mix-hot",
            Workload::SolveCold => "solve-cold",
            Workload::RouteSpread => "route-spread",
        }
    }

    /// Pipelined lines each connection keeps in flight (closed loop).
    pub fn credit(self) -> usize {
        match self {
            Workload::MixHot => 16,
            Workload::SolveCold => 1,
            Workload::RouteSpread => 8,
        }
    }

    /// The `parspeed` subcommand and flags serving this workload.
    pub fn server_args(self) -> Vec<String> {
        let args: Vec<String> = match self {
            Workload::MixHot | Workload::SolveCold => vec!["serve".into()],
            Workload::RouteSpread => vec![
                "route".into(),
                "--shards".into(),
                SPREAD_SHARDS.to_string(),
                "--cache-capacity".into(),
                SPREAD_CAPACITY.to_string(),
            ],
        };
        args
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Req {
    /// The wire line, newline included.
    pub line: String,
    /// The query the line encodes.
    pub query: Query,
    /// Index into the workload's universe (and its reference replies);
    /// `None` for `solve-cold`, whose keys never repeat.
    pub idx: Option<usize>,
    /// Whether this `solve-cold` reply joins the byte-for-byte sample.
    pub sample: bool,
}

/// The distinct queries a workload draws from (empty for `solve-cold`).
pub fn universe(workload: Workload) -> Vec<Query> {
    match workload {
        Workload::MixHot => {
            // `mixed_batch` cycles over its distinct queries; one cycle is
            // the universe.
            let cycle = mixed_batch(4096);
            let len = (1..cycle.len()).find(|&i| cycle[i] == cycle[0]).unwrap_or(cycle.len());
            cycle[..len].to_vec()
        }
        Workload::SolveCold => Vec::new(),
        Workload::RouteSpread => spread_pool(),
    }
}

/// The `perf_snapshot` `sharding_pool` shape: one optimize point in four,
/// the rest fixed-work Jacobi solves. An unreachable tolerance runs
/// exactly `max_iters` sweeps, so a miss costs real, bounded work; the
/// tolerance differs per key, which keeps all keys distinct.
fn spread_pool() -> Vec<Query> {
    (0..SPREAD_KEYS)
        .map(|i| match i % 4 {
            0 => Request::optimize(ArchKind::SyncBus, 64 + i).procs(16 + (i % 48)).query(),
            _ => Request::solve(31)
                .solver(SolverKind::Jacobi)
                .tol(1e-300 * (1 + i) as f64)
                .max_iters(200 + (i % 64))
                .query(),
        })
        .collect()
}

/// The `solve-cold` deck: every solver at n ∈ {15, 31}, over both
/// stencils and both tolerances where the solver reads them. `parallel`
/// stays in at sizes where it loses to sequential Jacobi at HEAD, so that
/// cost shows. Jacobi at n = 31 is dealt three times: latencies cluster
/// by solver and size, and the weight puts the median inside that one
/// cluster instead of on the gap between two, where it would jump.
pub fn solve_deck() -> Vec<(SolverKind, usize, StencilSpec, f64)> {
    use SolverKind::*;
    let mut deck = Vec::new();
    for (solver, n, copies) in [
        (Cg, 15, 1),
        (Cg, 31, 1),
        (Multigrid, 15, 1),
        (Multigrid, 31, 1),
        (Sor, 15, 1),
        (Sor, 31, 1),
        (Jacobi, 15, 1),
        (Jacobi, 31, 3),
        (RedBlack, 15, 1),
        (RedBlack, 31, 1),
        (Parallel, 15, 1),
        (Parallel, 31, 1),
    ] {
        let stencils: &[StencilSpec] = if solver.uses_stencil() {
            &[StencilSpec::FivePoint, StencilSpec::NinePointBox]
        } else {
            &[StencilSpec::FivePoint]
        };
        for _ in 0..copies {
            for &stencil in stencils {
                for tol in [1e-6, 3e-6] {
                    deck.push((solver, n, stencil, tol));
                }
            }
        }
    }
    deck
}

fn solve_query(
    (solver, n, stencil, tol): (SolverKind, usize, StencilSpec, f64),
    id: usize,
) -> Query {
    Query::Solve { n, solver, tol, stencil, partitions: 4, max_iters: id, check: None }
}

/// The keys a warm-up pass sends before measuring: the whole `mix-hot`
/// universe, the hottest `route-spread` keys (as many as the fleet
/// holds), and one solve per `solve-cold` deck entry under warm-up ids.
pub fn warmup(workload: Workload) -> Vec<Req> {
    match workload {
        Workload::MixHot => universe_reqs(workload, 0..universe(workload).len()),
        Workload::RouteSpread => universe_reqs(workload, 0..SPREAD_SHARDS * SPREAD_CAPACITY),
        Workload::SolveCold => solve_deck()
            .into_iter()
            .enumerate()
            .map(|(i, entry)| req(solve_query(entry, SOLVE_WARM_BASE + i), None, false))
            .collect(),
    }
}

fn universe_reqs(workload: Workload, range: std::ops::Range<usize>) -> Vec<Req> {
    let all = universe(workload);
    range.map(|i| req(all[i].clone(), Some(i), false)).collect()
}

fn req(query: Query, idx: Option<usize>, sample: bool) -> Req {
    let mut line = wire_line(&query);
    line.push('\n');
    Req { line, query, idx, sample }
}

/// The seed of round `round` of a run seeded with `seed`: every round
/// runs on a fresh server with its own streams.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    let mut rng = Rng::new(seed);
    (0..=round).fold(0, |_, _| rng.next_u64())
}

/// One connection's endless, seeded request stream.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    universe: Vec<Query>,
    /// Deck indices of the current block, consumed from the back.
    block: Vec<usize>,
    /// Zipf CDF over universe ranks (`route-spread` only).
    cdf: Vec<f64>,
    deck: Vec<(SolverKind, usize, StencilSpec, f64)>,
    conn: usize,
    conns: usize,
    sent: usize,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, conn: usize, conns: usize) -> Stream {
        let universe = universe(workload);
        let cdf = if workload == Workload::RouteSpread {
            let weights: Vec<f64> =
                (0..universe.len()).map(|r| 1.0 / ((r + 1) as f64).powf(SPREAD_ZIPF)).collect();
            let total: f64 = weights.iter().sum();
            weights
                .iter()
                .scan(0.0, |acc, w| {
                    *acc += w / total;
                    Some(*acc)
                })
                .collect()
        } else {
            Vec::new()
        };
        // Connection streams are independent: mix the connection into
        // the seed through one SplitMix step.
        let rng = Rng::new(Rng::new(seed ^ ((conn as u64) << 56)).next_u64());
        Stream {
            workload,
            rng,
            universe,
            block: Vec::new(),
            cdf,
            deck: solve_deck(),
            conn,
            conns,
            sent: 0,
        }
    }

    /// The next block entry: a seeded permutation of `0..len`, refilled
    /// when exhausted, so every `len` draws hold each entry once.
    fn deal(&mut self, len: usize) -> usize {
        if self.block.is_empty() {
            self.block = (0..len).collect();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop().expect("refilled above")
    }

    pub fn next_req(&mut self) -> Req {
        let id = self.sent * self.conns + self.conn;
        self.sent += 1;
        match self.workload {
            Workload::MixHot => {
                let i = self.deal(self.universe.len());
                req(self.universe[i].clone(), Some(i), false)
            }
            Workload::RouteSpread => {
                let u = self.rng.unit();
                let i = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
                req(self.universe[i].clone(), Some(i), false)
            }
            Workload::SolveCold => {
                let pick = self.deal(self.deck.len());
                let entry = self.deck[pick];
                let sample = self.rng.below(SOLVE_SAMPLE_ONE_IN) == 0;
                req(solve_query(entry, SOLVE_ID_BASE + id), None, sample)
            }
        }
    }
}

/// Renders a query as the wire-v2 request line that parses back to it.
/// Fields at their wire default (paper machine, unlimited budget) are
/// left out, as a client would.
pub fn wire_line(query: &Query) -> String {
    let mut f: Vec<(String, Json)> = Vec::new();
    let mut put = |k: &str, v: Json| f.push((k.to_string(), v));
    let num = |x: usize| Json::Num(x as f64);
    let s = |x: &str| Json::Str(x.to_string());
    put("op", s(jsonl::op_name(query)));
    put("version", num(2));
    let workload = |put: &mut dyn FnMut(&str, Json), w: &WorkloadSpec| {
        put("n", num(w.n));
        put("stencil", Json::Str(w.stencil.name()));
        put("shape", s(w.shape.name()));
    };
    let budget = |put: &mut dyn FnMut(&str, Json), p: &Option<usize>| {
        if let Some(p) = p {
            put("procs", num(*p));
        }
    };
    let machine = match query {
        Query::Optimize { arch, machine, workload: w, procs, memory_words } => {
            put("arch", s(arch.name()));
            workload(&mut put, w);
            budget(&mut put, procs);
            if let Some(words) = memory_words {
                put("memory_words", Json::Num(*words));
            }
            machine
        }
        Query::MinSize { variant, machine, e, k, procs } => {
            put("variant", s(variant.name()));
            put("e", Json::Num(*e));
            put("k", Json::Num(*k));
            put("procs", num(*procs));
            machine
        }
        Query::Isoefficiency { arch, machine, stencil, shape, procs, efficiency } => {
            put("arch", s(arch.name()));
            put("stencil", Json::Str(stencil.name()));
            put("shape", s(shape.name()));
            put("procs", num(*procs));
            put("efficiency", Json::Num(*efficiency));
            machine
        }
        Query::Leverage { machine, workload: w, procs, lever, factor } => {
            workload(&mut put, w);
            budget(&mut put, procs);
            put("lever", s(lever.name()));
            put("factor", Json::Num(*factor));
            machine
        }
        Query::Table1 { machine, n, stencil } => {
            put("n", num(*n));
            put("stencil", Json::Str(stencil.name()));
            machine
        }
        Query::Compare { machine, workload: w, procs } => {
            workload(&mut put, w);
            budget(&mut put, procs);
            machine
        }
        Query::Simulate { arch, machine, workload: w, procs } => {
            put("arch", s(arch.name()));
            workload(&mut put, w);
            put("procs", num(*procs));
            machine
        }
        Query::Solve { n, solver, tol, stencil, partitions, max_iters, check } => {
            put("n", num(*n));
            put("solver", s(solver.name()));
            put("tol", Json::Num(*tol));
            put("stencil", Json::Str(stencil.name()));
            put("partitions", num(*partitions));
            put("max_iters", num(*max_iters));
            if let Some(check) = check {
                put("check_policy", Json::Str(check.name()));
            }
            return Json::Obj(f).render();
        }
        other => panic!("the benchmark never generates `{}` queries", jsonl::op_name(other)),
    };
    assert_eq!(*machine, MachineSpec::default(), "generated queries use the paper machine");
    Json::Obj(f).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(workload: Workload, seed: u64, len: usize) -> String {
        let mut streams: Vec<Stream> = (0..2).map(|c| Stream::new(workload, seed, c, 2)).collect();
        (0..len).map(|i| streams[i % 2].next_req().line).collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        for w in Workload::ALL {
            assert_eq!(prefix(w, 7, 600), prefix(w, 7, 600), "{}", w.name());
            assert_ne!(prefix(w, 7, 600), prefix(w, 8, 600), "{}", w.name());
        }
    }

    #[test]
    fn every_line_parses_back_to_its_query() {
        for w in Workload::ALL {
            let mut stream = Stream::new(w, 3, 0, 2);
            let reqs = warmup(w).into_iter().chain((0..500).map(|_| stream.next_req()));
            for r in reqs {
                let parsed = jsonl::parse_query(r.line.trim_end()).expect("line parses");
                assert_eq!(parsed.query, r.query, "{}", r.line);
                assert_eq!(parsed.version, 2);
            }
        }
    }

    #[test]
    fn solve_cold_keys_never_repeat() {
        let mut streams: Vec<Stream> =
            (0..2).map(|c| Stream::new(Workload::SolveCold, 5, c, 2)).collect();
        let mut queries: Vec<Query> =
            warmup(Workload::SolveCold).into_iter().map(|r| r.query).collect();
        queries.extend((0..400).map(|i| streams[i % 2].next_req().query));
        let plan = parspeed_engine::Plan::build(&queries);
        assert_eq!(plan.unique.len(), queries.len());
    }

    #[test]
    fn universes_hold_distinct_keys() {
        for w in [Workload::MixHot, Workload::RouteSpread] {
            let u = universe(w);
            let plan = parspeed_engine::Plan::build(&u);
            assert!(plan.unique.len() >= u.len(), "{}", w.name());
        }
        assert_eq!(universe(Workload::RouteSpread).len(), SPREAD_KEYS);
    }

    #[test]
    fn mix_hot_universe_covers_every_kind() {
        let u = universe(Workload::MixHot);
        assert!(u.len() > 100);
        let ops: std::collections::BTreeSet<_> = u.iter().map(jsonl::op_name).collect();
        for op in
            ["optimize", "table1", "compare", "minsize", "isoeff", "leverage", "simulate", "solve"]
        {
            assert!(ops.contains(op), "{op}");
        }
    }
}
