//! The router's thread budget: a fleet of `P` shards with `W` batcher
//! workers each costs `P·W` worker threads plus one maintenance thread.
//! Shard replies complete their origin slots on the workers that produce
//! them, so no thread exists per shard. Reads the process's own thread
//! list from procfs, so it is Linux only, and the file holds a single
//! test so no other test's threads share the count.
#![cfg(target_os = "linux")]

use parspeed_engine::{ArchKind, Engine, Request, Response};
use parspeed_router::{Router, RouterConfig, SupervisorPolicy};
use parspeed_server::ServerConfig;
use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Every thread's name (`comm`, truncated by the kernel to 15 bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// Waits (bounded) for the thread count to reach `want` — a joined
/// thread can take a moment to leave the task list — and returns the
/// last count seen.
fn settle(want: usize) -> usize {
    let start = Instant::now();
    loop {
        let now = thread_count();
        if now == want || start.elapsed() > Duration::from_secs(5) {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn wait_for_rejoin(router: &Router) {
    let start = Instant::now();
    while !router.topology().render().contains(r#""lost":[]"#) {
        assert!(start.elapsed() < Duration::from_secs(10), "the killed shard never rejoined");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_fleet_costs_its_workers_plus_one_maintenance_thread() {
    let (shards, workers) = (4, 2);
    let baseline = thread_count();
    let router = Router::start(RouterConfig {
        shards,
        backend: ServerConfig { workers, ..ServerConfig::default() },
        supervisor: Some(SupervisorPolicy {
            respawn_after: Duration::from_millis(10),
            respawn_backoff: Duration::from_millis(5),
            ..SupervisorPolicy::default()
        }),
        ..RouterConfig::default()
    });
    let budget = baseline + shards * workers + 1;
    assert_eq!(settle(budget), budget, "threads: {:?}", thread_names());
    // A new thread names itself once it runs, so wait for the names too.
    let start = Instant::now();
    let names = loop {
        let names = thread_names();
        let named = names.iter().filter(|n| n.starts_with("parspeed-")).count();
        if named == shards * workers + 1 || start.elapsed() > Duration::from_secs(5) {
            break names;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    // Nothing per shard beyond its workers: every fleet thread is a
    // batcher worker or the maintenance thread.
    assert!(
        names
            .iter()
            .filter(|n| n.starts_with("parspeed-"))
            .all(|n| n.starts_with("parspeed-batch") || n == "parspeed-maint"),
        "{names:?}"
    );
    let batch = names.iter().filter(|n| n.starts_with("parspeed-batch")).count();
    assert_eq!(batch, shards * workers, "{names:?}");
    assert_eq!(names.iter().filter(|n| *n == "parspeed-maint").count(), 1, "{names:?}");

    // Traffic completes on the shard workers: no thread appears for it.
    let client = router.client();
    let engine = Engine::default();
    for n in 64..96 {
        let q = Request::optimize(ArchKind::SyncBus, n).procs(32).query();
        let expect = engine.run_batch(std::slice::from_ref(&q)).responses.remove(0);
        assert_eq!(client.call(q), expect);
    }
    assert_eq!(settle(budget), budget, "threads: {:?}", thread_names());

    // A supervised kill plus respawn swaps the shard's workers one for
    // one and spawns nothing else.
    router.kill_shard(1).expect("shard 1 was live");
    wait_for_rejoin(&router);
    assert!(matches!(
        client.call(Request::optimize(ArchKind::SyncBus, 256).procs(64).query()),
        Response::Single(Ok(_))
    ));
    assert_eq!(settle(budget), budget, "threads: {:?}", thread_names());

    router.shutdown();
    assert_eq!(settle(baseline), baseline, "threads: {:?}", thread_names());
}
