//! `parspeed route` — the sharded serving tier: a consistent-hash
//! router over a fleet of shard servers, plus the paper-driven fleet
//! sizing (`--predict`).

use crate::args::{err, Args, CliError};
use parspeed_engine::{CheckpointPolicy, CheckpointStore, Engine};
use parspeed_router::predict::{predict, FleetModel, SweepPoint, WorkloadProfile};
use parspeed_router::{BreakerPolicy, RetryPolicy, Router, RouterConfig, SupervisorPolicy};
use parspeed_server::ServerConfig;
use std::io::{BufRead as _, Write as _};
use std::sync::Arc;
use std::time::Duration;

pub const KEYS: &[&str] = &[
    "addr",
    "shards",
    "replicas",
    "window-us",
    "max-batch",
    "workers",
    "queue-depth",
    "cache-capacity",
    "deadline-ms",
    "retry-max",
    "backoff-base-ms",
    "backoff-cap-ms",
    "breaker-threshold",
    "probe-after-ms",
    "stall-after-ms",
    "fault-plan",
    "fault-seed",
    "respawn-after-ms",
    "max-respawns",
    "warm-fraction",
    "checkpoint-every",
    "distinct",
    "capacity",
    "max-shards",
    "sweep",
    "wbuf-shed-kib",
    "wbuf-stop-kib",
];
pub const SWITCHES: &[&str] = &["predict", "stats"];

/// Usage shown by `parspeed help route`.
pub const USAGE: &str = "parspeed route [--addr HOST:PORT] [--shards N] [--replicas N]
               [--window-us N] [--max-batch N] [--workers N]
               [--queue-depth N] [--cache-capacity N]
               [--deadline-ms N]
               [--retry-max N] [--backoff-base-ms N] [--backoff-cap-ms N]
               [--breaker-threshold N] [--probe-after-ms N]
               [--stall-after-ms N] [--fault-plan SPEC] [--fault-seed N]
               [--respawn-after-ms N] [--max-respawns N]
               [--warm-fraction F] [--checkpoint-every N] [--stats]
               [--wbuf-shed-kib N] [--wbuf-stop-kib N]
       parspeed route --predict --distinct D --capacity C
               [--max-shards N] [--sweep P:SECS,P:SECS,...]

Serving mode: fronts N full shard servers (each its own engine and
result cache) behind one wire-v2 JSONL address. Every request is routed
by consistent-hashing its canonical cache key onto a hash ring, so
duplicated traffic always lands on the same warm shard and the fleet's
aggregate cache holds N times the keys. The wire is `parspeed serve`'s
wire, with router-level differences: `{\"op\":\"topology\"}` answers
the live fleet (members, ring replicas, per-shard resident keys),
`{\"op\":\"metrics\"}` answers the router-scoped record — the
resilience counters plus each shard's breaker state — and
`{\"op\":\"stats\"}`/`trace` refuse with
\"error_kind\":\"unsupported\" (per-shard state; probe a shard).
`{\"op\":\"health\"}` answers with \"shard\":null — backends answer
theirs with their shard id. The router's own TCP frontend is the same
readiness-driven event loop `parspeed serve` runs, with the same
--wbuf-* watermarks. Prints `routing on HOST:PORT`, serves until
stdin reaches EOF (Ctrl-D), drains every in-flight reply, and exits.

A lost or tripped shard does not lose requests: in-flight idempotent
work fails over around the ring with capped, deterministically jittered
backoff; per-shard circuit breakers open on consecutive failures or a
reply stall and readmit the shard through a half-open probe. Requests
may carry \"deadline_ms\"; an expired budget answers its own slot with
\"error_kind\":\"deadline_exceeded\".

Predict mode (--predict): the paper sizes the fleet. A workload with D
distinct cache keys over C-entry shard caches is the paper's bounded-
memory allocation problem: the memory floor is ceil(D/C) shards, and a
measured shard sweep fits the serving curve T(P) = W/P + gamma*P + beta
onto the synchronous-bus strip machine, which `Query::Optimize`
minimizes — quantization, memory floor, and infeasibility included.

  --addr HOST:PORT     listen address (default 127.0.0.1:0)
  --shards N           fleet size (default 4)
  --replicas N         ring points per shard (default 64)
  --window-us N        per-shard micro-batch window (default 200)
  --max-batch N        per-shard batch bound (default 512)
  --workers N          per-shard batcher workers (default 2); each worker
                       evaluates its batch's cache misses on its own
                       thread (a parallel solve still forks its bands)
  --queue-depth N      per-shard submission-queue bound (default 4096)
  --cache-capacity N   per-shard result-cache entries (default 65536)
  --wbuf-shed-kib N    event loop: write-buffer KiB above which new
                       requests shed as overloaded (default 256)
  --wbuf-stop-kib N    event loop: write-buffer KiB above which the
                       connection stops being read (default 1024)
  --deadline-ms N      default per-request deadline budget applied to
                       requests that carry none (default off)
  --retry-max N        dispatch attempts per request before the slot
                       refuses with the rebalance hint (default 3)
  --backoff-base-ms N  base of the capped exponential retry backoff
                       (default 2)
  --backoff-cap-ms N   backoff ceiling in milliseconds (default 50)
  --breaker-threshold N  consecutive shard failures that open its
                       circuit breaker (default 3)
  --probe-after-ms N   how long an open breaker waits before the
                       half-open readmission probe (default 250)
  --stall-after-ms N   reply silence on a lane that counts as a stall
                       and trips the breaker (default 1000)
  --fault-plan SPEC    install a deterministic fault plan, e.g.
                       `kill:0@3,drop:1@7` — ACTION@REQUEST pairs
                       (kill:S, delay:S:MS, drop:S, dup:S, wedge:S,
                       respawn-deny:S, crashloop:S:N) firing at 1-based
                       request indices
  --fault-seed N       seed for the fault plan's deterministic jitter
                       (default 0); the same seed replays the same trace
  --respawn-after-ms N run the self-healing supervisor: a shard lost
                       this long is respawned — fresh server + engine,
                       readiness probe, cache-warm replay of its hot
                       keys — and readmitted to the ring (default off;
                       a killed shard stays dead)
  --max-respawns N     respawn attempts per shard before permanent
                       eviction (default 3)
  --warm-fraction F    fraction (0..=1) of a shard's hot keys the
                       replacement replays before rejoining (default
                       0.5)
  --checkpoint-every N checkpoint long solves every N convergence
                       checks into a fleet-shared store, so an
                       interrupted solve resumes on its failover shard
                       instead of restarting (default off)
  --stats              print per-shard telemetry after draining
  --predict            predict the optimal fleet size and exit
  --distinct D         distinct cache keys the workload touches
  --capacity C         result-cache entries one shard holds
  --max-shards N       largest fleet to consider (default 16)
  --sweep P:S,...      measured sweep, `shards:seconds` pairs; suffix a
                       pair with `!` (e.g. `3:14.9!`) to mark it
                       degraded — taken with shards lost mid-run — so
                       the fit excludes it; with fewer than three clean
                       sizes the prediction degrades to the memory
                       floor ceil(D/C)";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    if args.switch("predict") {
        return run_predict(args);
    }
    let backend = ServerConfig {
        window: Duration::from_micros(args.usize_or("window-us", 200)? as u64),
        max_batch: args.usize_or("max-batch", 512)?,
        workers: args.usize_or("workers", 2)?,
        queue_depth: args.usize_or("queue-depth", 4096)?,
        ..ServerConfig::default()
    };
    let retry_defaults = RetryPolicy::default();
    let breaker_defaults = BreakerPolicy::default();
    let sup_defaults = SupervisorPolicy::default();
    let warm_fraction = args.f64_or("warm-fraction", sup_defaults.warm_fraction)?;
    if !(0.0..=1.0).contains(&warm_fraction) {
        return Err(err("flag `--warm-fraction` must be between 0 and 1"));
    }
    let supervisor = args.usize_opt("respawn-after-ms")?.map(|ms| SupervisorPolicy {
        respawn_after: Duration::from_millis(ms as u64),
        max_respawns: sup_defaults.max_respawns,
        respawn_backoff: sup_defaults.respawn_backoff,
        warm_fraction,
    });
    let supervisor = match (supervisor, args.usize_opt("max-respawns")?) {
        (Some(s), Some(n)) => Some(SupervisorPolicy { max_respawns: n as u32, ..s }),
        (None, Some(_)) => {
            return Err(err(
                "flag `--max-respawns` needs the supervisor; add `--respawn-after-ms N`",
            ))
        }
        (s, None) => s,
    };
    let config = RouterConfig {
        shards: args.usize_or("shards", 4)?,
        replicas: args.usize_or("replicas", 64)?,
        backend,
        default_deadline: args.usize_opt("deadline-ms")?.map(|ms| Duration::from_millis(ms as u64)),
        retry: RetryPolicy {
            max_attempts: args.usize_or("retry-max", retry_defaults.max_attempts as usize)? as u32,
            backoff_base_ms: args
                .usize_or("backoff-base-ms", retry_defaults.backoff_base_ms as usize)?
                as u64,
            backoff_cap_ms: args
                .usize_or("backoff-cap-ms", retry_defaults.backoff_cap_ms as usize)?
                as u64,
            seed: args.usize_or("fault-seed", retry_defaults.seed as usize)? as u64,
        },
        breaker: BreakerPolicy {
            failure_threshold: args
                .usize_or("breaker-threshold", breaker_defaults.failure_threshold as usize)?
                as u32,
            probe_after: Duration::from_millis(
                args.usize_or("probe-after-ms", breaker_defaults.probe_after.as_millis() as usize)?
                    as u64,
            ),
            stall_after: Duration::from_millis(
                args.usize_or("stall-after-ms", breaker_defaults.stall_after.as_millis() as usize)?
                    as u64,
            ),
        },
        supervisor,
        event_loop: super::serve::event_loop_config(args)?,
    };
    for (flag, value) in [
        ("shards", config.shards),
        ("replicas", config.replicas),
        ("max-batch", backend.max_batch),
        ("workers", backend.workers),
        ("queue-depth", backend.queue_depth),
        ("retry-max", config.retry.max_attempts as usize),
        ("breaker-threshold", config.breaker.failure_threshold as usize),
    ] {
        if value == 0 {
            return Err(err(format!("flag `--{flag}` must be at least 1")));
        }
    }
    let plan = super::serve::fault_plan(args)?;
    let cache_capacity =
        args.usize_or("cache-capacity", parspeed_engine::DEFAULT_CACHE_CAPACITY)?;
    // One checkpoint store for the whole fleet: a solve interrupted on
    // a dying shard resumes from its last checkpoint on the failover
    // (or respawned) shard instead of restarting from iteration zero.
    let checkpoints = match args.usize_opt("checkpoint-every")? {
        Some(0) => return Err(err("flag `--checkpoint-every` must be at least 1")),
        Some(every) => Some((Arc::new(CheckpointStore::new(64)), CheckpointPolicy::every(every))),
        None => None,
    };
    let mut router = Router::start_with(config, move |_shard| {
        // Each shard's batcher workers are its processors: a batch's
        // misses evaluate on the worker's own thread.
        let mut builder = Engine::builder()
            .cache_capacity(cache_capacity)
            .threads(1)
            .experiment_runner(crate::commands::experiment::runner);
        if let Some((store, policy)) = &checkpoints {
            builder = builder.checkpoints(Arc::clone(store), *policy);
        }
        Arc::new(builder.build())
    });
    if plan.is_some() {
        router.install_fault_plan(plan);
    }
    let addr = args.str_or("addr", "127.0.0.1:0");
    let local = router.listen(addr).map_err(|e| err(format!("cannot bind `{addr}`: {e}")))?;

    println!("routing on {local} ({} shards)", config.shards);
    println!("serving; close stdin (Ctrl-D) to drain and exit");
    std::io::stdout().flush().map_err(|e| err(format!("cannot flush stdout: {e}")))?;

    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
    }
    let resilience = router.resilience();
    let stats = router.shutdown();
    if args.switch("stats") {
        let mut out = String::from("drained");
        let snap = resilience.snapshot();
        for (name, value) in snap.fields() {
            if value > 0 {
                out.push_str(&format!("\nresilience {name}: {value}"));
            }
        }
        for (shard, s) in &stats {
            out.push_str(&format!("\nshard {shard}: {s}"));
        }
        Ok(out)
    } else {
        Ok("drained".into())
    }
}

/// `--predict`: profile + optional sweep → the optimizer's fleet size.
fn run_predict(args: &Args) -> Result<String, CliError> {
    let Some(distinct) = args.usize_opt("distinct")? else {
        return Err(err("--predict needs `--distinct D`; try `parspeed help route`"));
    };
    let Some(capacity) = args.usize_opt("capacity")? else {
        return Err(err("--predict needs `--capacity C`; try `parspeed help route`"));
    };
    if distinct == 0 || capacity == 0 {
        return Err(err("--distinct and --capacity must be at least 1"));
    }
    let max_shards = args.usize_or("max-shards", 16)?;
    let sweep = parse_sweep(args.str_opt("sweep").unwrap_or(""))?;
    let degraded = sweep.iter().filter(|p| p.degraded).count();
    let profile = WorkloadProfile { distinct_keys: distinct, shard_capacity: capacity };
    let p = predict(profile, &sweep, max_shards).map_err(|e| err(e.to_string()))?;
    let mut out = format!(
        "predicted shards  {}\nmemory floor      {} ({} distinct keys / {}-entry shard cache)\n\
         model speedup     {:.2}x over one shard",
        p.shards, p.memory_floor, distinct, capacity, p.speedup
    );
    match p.model {
        Some(FleetModel { scatter, coordination, floor }) => out.push_str(&format!(
            "\nfitted curve      T(P) = {scatter:.4}/P + {coordination:.4}*P + {floor:.4}  \
             ({} sweep points, {} degraded excluded)",
            sweep.len() - degraded,
            degraded
        )),
        None => out.push_str(
            "\nfitted curve      none (fewer than three clean feasible sweep sizes); \
             the memory floor decides",
        ),
    }
    Ok(out)
}

/// Parses `--sweep 4:12.3,6:10.1,8:11.0` into sweep points. A trailing
/// `!` on a pair (`3:14.9!`) marks the sample degraded — measured with
/// shards lost mid-run — so the fit excludes it.
fn parse_sweep(text: &str) -> Result<Vec<SweepPoint>, CliError> {
    let text = text.trim();
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|pair| {
            let bad = || err(format!("--sweep: `{pair}` is not `shards:seconds`"));
            let (clean, degraded) = match pair.trim().strip_suffix('!') {
                Some(rest) => (rest, true),
                None => (pair.trim(), false),
            };
            let (p, s) = clean.split_once(':').ok_or_else(bad)?;
            let shards: usize = p.trim().parse().map_err(|_| bad())?;
            let seconds: f64 = s.trim().parse().map_err(|_| bad())?;
            if shards == 0 || !seconds.is_finite() || seconds <= 0.0 {
                return Err(bad());
            }
            Ok(SweepPoint { shards, seconds, degraded })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_pairs_parse_with_the_degraded_suffix() {
        let points = parse_sweep("4:12.3, 6:10.1!, 8:11.0").expect("parses");
        assert_eq!(points.len(), 3);
        assert!(!points[0].degraded && points[1].degraded && !points[2].degraded);
        assert_eq!(points[1].shards, 6);
        assert_eq!(points[1].seconds, 10.1);
    }

    #[test]
    fn malformed_sweep_pairs_refuse() {
        for bad in ["4", "0:1.0", "4:-1.0", "4:NaN", "4:1.0!!", "!4:1.0"] {
            assert!(parse_sweep(bad).is_err(), "{bad} should refuse");
        }
    }
}
