//! The self-healing fleet, end to end: a supervised router detects a
//! killed shard, respawns a replacement, warms its cache from the hot
//! keys, and readmits it to the ring — with zero dropped requests and
//! every reply bit-identical to a clean engine. The failure driver is a
//! seeded [`parspeed_chaos::FaultPlan`], so every scenario here —
//! respawn, denied respawn, crash-loop to permanent eviction — replays
//! the same event trace from the same seed.

use parspeed_chaos::FaultPlan;
use parspeed_engine::{
    jsonl, routing_hash, ArchKind, CheckpointPolicy, CheckpointStore, Engine, Query, Request,
    Response, SolverKind, StencilSpec,
};
use parspeed_router::ring::HashRing;
use parspeed_router::{Router, RouterConfig, SupervisorPolicy};
use parspeed_server::ServerConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn query(n: usize) -> Query {
    Request::optimize(ArchKind::SyncBus, n).procs(32).query()
}

/// A supervised fleet tuned for test speed: millisecond debounce and
/// backoff, full warmup before rejoin.
fn supervised_config(shards: usize) -> RouterConfig {
    RouterConfig {
        shards,
        backend: ServerConfig {
            window: Duration::from_micros(200),
            max_batch: 4096,
            ..ServerConfig::default()
        },
        supervisor: Some(SupervisorPolicy {
            respawn_after: Duration::from_millis(10),
            max_respawns: 3,
            respawn_backoff: Duration::from_millis(5),
            warm_fraction: 1.0,
        }),
        ..RouterConfig::default()
    }
}

/// A grid side whose query routes to `shard` on the full ring.
fn side_on_shard(config: &RouterConfig, shard: usize) -> usize {
    let ring = HashRing::with_shards(config.shards, config.replicas);
    (64..4096)
        .find(|&n| ring.route(routing_hash(&query(n))) == Some(shard))
        .expect("some key routes to the shard")
}

/// Spins until the ring reports every shard a member again (the rejoin
/// happened), or panics after `deadline`.
fn wait_for_rejoin(router: &Router, shards: usize, deadline: Duration) {
    let start = Instant::now();
    loop {
        let topo = router.topology().render();
        if topo.contains(&format!(r#""shards":{shards}"#)) && topo.contains(r#""lost":[]"#) {
            return;
        }
        assert!(start.elapsed() < deadline, "shard never rejoined the ring: {topo}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn killed_shard_respawns_warm_and_rejoins_with_zero_drops() {
    let config = supervised_config(2);
    let side = side_on_shard(&config, 0);
    let router = Router::start(config);
    // Kill shard 0 at the 4th admitted request — after its hot-key ring
    // has seen traffic worth warming.
    let plan = Arc::new(FaultPlan::parse("kill:0@4", 42).expect("plan parses"));
    router.install_fault_plan(Some(Arc::clone(&plan)));
    let client = router.client();
    let engine = Engine::default();

    // Closed loop across the kill and the respawn: every reply must be
    // the engine's own, bit-for-bit — zero requests dropped.
    let mut asked = 0u32;
    for round in 0..3 {
        for i in 0..4 {
            let q = query(side + i);
            let expect = engine.run_batch(std::slice::from_ref(&q)).responses.remove(0);
            assert_eq!(client.call(q), expect, "round {round} request {i} diverged");
            asked += 1;
        }
        if round == 0 {
            wait_for_rejoin(&router, 2, Duration::from_secs(10));
        }
    }
    assert_eq!(asked, 12);

    // The respawn is visible everywhere it should be: the metrics
    // counters, the warmup record, and the deterministic event trace.
    let metrics = router.metrics().render();
    assert!(metrics.contains(r#""respawns":1"#), "{metrics}");
    assert!(!metrics.contains(r#""warmup_keys_replayed":0"#), "{metrics}");
    assert!(metrics.contains(r#"{"shard":0,"state":"closed"}"#), "{metrics}");
    let warmup = router.warmup().render();
    assert!(warmup.starts_with(r#"{"version":2,"op":"warmup","shards":["#), "{warmup}");
    assert!(warmup.contains(r#""active":false"#), "{warmup}");
    let events = plan.events();
    assert!(events.iter().any(|e| e.contains("shard 0 lost")), "{events:?}");
    assert!(events.iter().any(|e| e.contains("shard 0 respawned and rejoined")), "{events:?}");
    assert!(router.evicted_shards().is_empty());

    // Both shards drain at shutdown: the fleet healed to full strength.
    let stats = router.shutdown();
    assert_eq!(stats.len(), 2, "the respawned shard drains too");
}

#[test]
fn denied_respawns_burn_budget_and_the_next_attempt_heals() {
    let config = supervised_config(2);
    let router = Router::start(config);
    // One scripted capacity denial, then the kill: attempt 1 is refused
    // (burning budget), attempt 2 respawns.
    let plan = Arc::new(FaultPlan::parse("respawn-deny:0@1,kill:0@2", 7).expect("plan parses"));
    router.install_fault_plan(Some(Arc::clone(&plan)));
    let client = router.client();
    for i in 0..3 {
        match client.call(query(64 + i)) {
            Response::Single(Ok(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    wait_for_rejoin(&router, 2, Duration::from_secs(10));
    let events = plan.events();
    assert!(
        events.iter().any(|e| e.contains("respawn of shard 0 denied (attempt 1)")),
        "{events:?}"
    );
    assert!(events.iter().any(|e| e.contains("(attempt 2")), "{events:?}");
    router.shutdown();
}

#[test]
fn crash_loop_exhausts_the_budget_into_permanent_eviction() {
    let mut config = supervised_config(2);
    config.supervisor = Some(SupervisorPolicy { max_respawns: 2, ..config.supervisor.unwrap() });
    let router = Router::start(config);
    // Five kills against a budget of two respawns: the shard crash-loops
    // to permanent eviction, and the ring never flaps back.
    let plan = Arc::new(FaultPlan::parse("crashloop:0:5@2", 7).expect("plan parses"));
    router.install_fault_plan(Some(Arc::clone(&plan)));
    let client = router.client();
    for i in 0..4 {
        match client.call(query(64 + i)) {
            Response::Single(Ok(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    let start = Instant::now();
    while router.evicted_shards().is_empty() {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "shard was never evicted: {:?}",
            plan.events()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(router.evicted_shards(), [0]);

    // The machine-readable eviction event, exactly once.
    let events = plan.events();
    let evictions: Vec<&String> = events
        .iter()
        .filter(|e| e.contains(r#"{"event":"shard-evicted","shard":0,"respawns":2}"#))
        .collect();
    assert_eq!(evictions.len(), 1, "{events:?}");

    // Eviction is terminal: the shard stays out of the ring, the state
    // word says so, and the survivor answers everything.
    let metrics = router.metrics().render();
    assert!(metrics.contains(r#"{"shard":0,"state":"evicted"}"#), "{metrics}");
    let topo = router.topology().render();
    assert!(topo.contains(r#""lost":[0]"#), "{topo}");
    for i in 0..4 {
        match client.call(query(256 + i)) {
            Response::Single(Ok(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(router.evicted_shards(), [0], "eviction never heals");
    let stats = router.shutdown();
    assert_eq!(stats.len(), 1, "only the survivor drains");
}

/// Satellite: the router-scoped `metrics` record stays internally
/// consistent — full key set, one valid state word per shard, counters
/// never torn — while breakers trip, probe, and reclose underneath it.
#[test]
fn metrics_are_consistent_under_concurrent_breaker_transitions() {
    let mut config = supervised_config(2);
    config.supervisor = None;
    let router = Router::start(config);
    let plan =
        Arc::new(FaultPlan::parse("wedge:0@2,wedge:1@6,kill:0@10", 21).expect("plan parses"));
    router.install_fault_plan(Some(plan));

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let valid = ["closed", "open", "half-open", "lost", "evicted"];
            let mut last_retries = 0.0f64;
            let mut snapshots = 0u32;
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                let json = router.metrics();
                let jsonl::Json::Obj(fields) = &json else { panic!("metrics not an object") };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["version", "op", "scope", "resilience", "breakers"]);
                let Some(jsonl::Json::Arr(breakers)) = json.get("breakers") else {
                    panic!("no breakers array")
                };
                assert_eq!(breakers.len(), 2);
                for b in breakers {
                    let state = b.get("state").and_then(jsonl::Json::as_str).unwrap();
                    assert!(valid.contains(&state), "torn state word {state:?}");
                }
                let resilience = json.get("resilience").expect("resilience object");
                let jsonl::Json::Obj(counters) = resilience else { panic!("not an object") };
                assert_eq!(counters.len(), 14, "counter set changed size");
                // Monotone under concurrency: a later snapshot never
                // shows fewer retries than an earlier one.
                let retries = resilience.get("retries").and_then(jsonl::Json::as_f64).unwrap();
                assert!(retries >= last_retries, "retries went backwards");
                last_retries = retries;
                snapshots += 1;
            }
            snapshots
        });

        // Drive traffic through wedge-trip-probe-reclose cycles and a
        // kill while the reader snapshots continuously.
        let client = router.client();
        for i in 0..16 {
            match client.call(query(64 + i)) {
                Response::Single(Ok(_)) | Response::Invalid(_) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let snapshots = reader.join().expect("reader thread");
        assert!(snapshots > 0, "the reader never snapshotted");
    });
    router.shutdown();
}

/// A fleet sharing one checkpoint store reports its checkpoint activity
/// on the router's `metrics` record — counted once, not once per shard.
#[test]
fn shared_checkpoint_store_reports_once_on_metrics() {
    let mut config = supervised_config(2);
    config.supervisor = None;
    let store = Arc::new(CheckpointStore::new(64));
    let policy = CheckpointPolicy::every(8);
    let factory = {
        let store = Arc::clone(&store);
        move |_shard: usize| {
            Arc::new(Engine::builder().checkpoints(Arc::clone(&store), policy).build())
        }
    };
    let router = Router::start_with(config, factory);
    let client = router.client();
    let solve = Query::Solve {
        n: 31,
        solver: SolverKind::Jacobi,
        tol: 1e-6,
        stencil: StencilSpec::FivePoint,
        partitions: 1,
        max_iters: 10_000,
        check: None,
    };
    match client.call(solve) {
        Response::Single(Ok(_)) => {}
        other => panic!("unexpected {other:?}"),
    }
    let taken = store.taken();
    assert!(taken > 0, "the solve never checkpointed");
    let metrics = router.metrics().render();
    // The store is shared by both shards; the fold must count it once.
    assert!(metrics.contains(&format!(r#""checkpoints_taken":{taken}"#)), "{metrics}");
    router.shutdown();
}
