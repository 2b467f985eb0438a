//! The router's TCP wire: the server's wire-v2 JSONL, fronted by the
//! fleet. A client cannot tell a router from a server except by asking:
//! `health` answers with `"shard":null` (the router is the front),
//! `topology` and the router-scoped `metrics` answer only here, and
//! `stats`/`trace` refuse with the `unsupported` kind (per-shard state
//! — probe a shard).
//! Everything else scatters, gathers, and comes back bit-identical to a
//! serial engine, in slot order, parse errors included.

use parspeed_engine::{jsonl, ArchKind, Engine, Query, Request, WIRE_VERSION};
use parspeed_router::{Router, RouterConfig};
use parspeed_server::ServerConfig;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

fn start_tcp_router(shards: usize) -> (Router, SocketAddr) {
    let mut router = Router::start(RouterConfig {
        shards,
        backend: ServerConfig {
            window: Duration::from_micros(300),
            max_batch: 64,
            ..ServerConfig::default()
        },
        ..RouterConfig::default()
    });
    let addr = router.listen(("127.0.0.1", 0)).expect("bind");
    (router, addr)
}

/// Writes `lines`, half-closes, and reads the full ordered reply stream.
fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for line in lines {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    BufReader::new(stream).lines().map(|l| l.expect("read")).collect()
}

fn optimize(n: usize) -> Query {
    Request::optimize(ArchKind::SyncBus, n).procs(64).query()
}

#[test]
fn queries_scatter_and_come_back_bit_identical_in_slot_order() {
    let (router, addr) = start_tcp_router(3);
    let lines = [
        r#"{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt","shape":"square","procs":64}"#,
        "not json at all",
        r#"{"op":"optimize","version":2,"arch":"sync-bus","n":128,"stencil":"5pt","shape":"square","procs":64}"#,
        r#"{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt","shape":"square","procs":64}"#,
    ];
    let replies = roundtrip(addr, &lines);
    assert_eq!(replies.len(), 4, "{replies:?}");

    // The engine's own rendered lines are the byte-level reference.
    let engine = Engine::default();
    let expect = |q: Query, line_no: usize| {
        let response = engine.run_batch(std::slice::from_ref(&q)).responses.remove(0);
        jsonl::render_response(&q, &response, WIRE_VERSION, line_no)
    };
    assert_eq!(replies[0], expect(optimize(256), 1));
    assert_eq!(replies[2], expect(optimize(128), 3));
    assert_eq!(replies[3], expect(optimize(256), 4));

    // The garbage line answers its own slot and poisons nothing — in
    // the *current* wire shape (version + machine-readable error_kind),
    // the same rule a standalone server applies: a line that is not
    // JSON has no version field to honor, so it must not be answered in
    // the legacy v1 shape that lacks the v2 error machinery.
    let err = jsonl::parse(&replies[1]).expect("reply is JSON");
    assert_eq!(err.get("ok"), Some(&jsonl::Json::Bool(false)), "{}", replies[1]);
    assert_eq!(err.get("version").unwrap().as_usize(), Some(2), "{}", replies[1]);
    assert_eq!(err.get("error_kind").unwrap().as_str(), Some("parse"), "{}", replies[1]);
    assert_eq!(err.get("line").unwrap().as_usize(), Some(2), "{}", replies[1]);

    router.shutdown();
}

#[test]
fn huge_deadline_budget_saturates_at_the_router_too() {
    let (router, addr) = start_tcp_router(2);
    // Same clamp as the server frontend: an unrepresentable budget
    // (`Instant + u64::MAX ms` would overflow) means "no deadline", not
    // a dead frontend thread and a wedged connection.
    let huge = format!(
        r#"{{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt","shape":"square","procs":64,"deadline_ms":{}}}"#,
        u64::MAX
    );
    let replies = roundtrip(
        addr,
        &[
            &huge,
            r#"{"op":"optimize","version":2,"arch":"sync-bus","n":128,"stencil":"5pt","shape":"square","procs":64}"#,
        ],
    );
    assert_eq!(replies.len(), 2, "connection died on the huge deadline: {replies:?}");
    for line in &replies {
        let v = jsonl::parse(line).expect("reply is JSON");
        assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(true)), "{line}");
    }
    router.shutdown();
}

#[test]
fn health_and_topology_answer_at_the_router_level() {
    let (router, addr) = start_tcp_router(3);
    let replies = roundtrip(
        addr,
        &[
            r#"{"op":"health","version":2}"#,
            r#"{"op":"topology","version":2}"#,
            r#"{"op":"warmup","version":2}"#,
        ],
    );
    assert_eq!(replies.len(), 3, "{replies:?}");

    let health = jsonl::parse(&replies[0]).expect("health is JSON");
    assert_eq!(health.get("op").unwrap().as_str(), Some("health"));
    assert_eq!(health.get("ok"), Some(&jsonl::Json::Bool(true)));
    assert_eq!(health.get("draining"), Some(&jsonl::Json::Bool(false)));
    // The router is the front, not a backend.
    assert_eq!(health.get("shard"), Some(&jsonl::Json::Null), "{}", replies[0]);
    // Additive only: the frozen six-field prefix stays first, then the
    // per-shard breaker summary appends.
    let jsonl::Json::Obj(fields) = &health else { panic!("health is not an object") };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["version", "op", "ok", "uptime_seconds", "draining", "shard", "breakers"],
        "{}",
        replies[0]
    );
    assert_eq!(
        health.get("breakers"),
        Some(&jsonl::Json::Arr(vec![
            jsonl::Json::Str("closed".into()),
            jsonl::Json::Str("closed".into()),
            jsonl::Json::Str("closed".into()),
        ])),
        "{}",
        replies[0]
    );

    let topology = jsonl::parse(&replies[1]).expect("topology is JSON");
    assert_eq!(topology.get("op").unwrap().as_str(), Some("topology"));
    assert_eq!(topology.get("shards").unwrap().as_usize(), Some(3));
    assert_eq!(
        topology.get("members"),
        Some(&jsonl::Json::Arr(vec![
            jsonl::Json::Num(0.0),
            jsonl::Json::Num(1.0),
            jsonl::Json::Num(2.0),
        ])),
        "{}",
        replies[1]
    );

    // No shard was ever respawned, so every warmup is idle at zero.
    let idle: Vec<String> = (0..3)
        .map(|s| format!(r#"{{"shard":{s},"active":false,"target":0,"replayed":0}}"#))
        .collect();
    let warmup = format!(r#"{{"version":2,"op":"warmup","shards":[{}]}}"#, idle.join(","));
    assert_eq!(replies[2], warmup);

    router.shutdown();
}

#[test]
fn router_metrics_answers_the_router_scoped_record() {
    let (router, addr) = start_tcp_router(2);
    let replies = roundtrip(addr, &[r#"{"op":"metrics","version":2}"#]);
    assert_eq!(replies.len(), 1, "{replies:?}");
    let v = jsonl::parse(&replies[0]).expect("metrics is JSON");
    assert_eq!(v.get("op").unwrap().as_str(), Some("metrics"), "{}", replies[0]);
    assert_eq!(v.get("scope").unwrap().as_str(), Some("router"), "{}", replies[0]);
    let resilience = v.get("resilience").expect("resilience object");
    assert_eq!(resilience.get("retries").unwrap().as_usize(), Some(0), "{}", replies[0]);
    assert!(replies[0].contains(r#"{"shard":0,"state":"closed"}"#), "{}", replies[0]);
    router.shutdown();
}

#[test]
fn per_shard_ops_refuse_with_the_unsupported_kind() {
    let (router, addr) = start_tcp_router(2);
    for (i, op) in ["stats", "trace"].iter().enumerate() {
        let replies = roundtrip(addr, &[&format!(r#"{{"op":"{op}","version":2}}"#)]);
        assert_eq!(replies.len(), 1, "op {op}");
        let v = jsonl::parse(&replies[0]).expect("reply is JSON");
        assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(false)), "op {op}: {}", replies[0]);
        assert_eq!(
            v.get("error_kind").unwrap().as_str(),
            Some("unsupported"),
            "op {op}: {}",
            replies[0]
        );
        let msg = v.get("error").unwrap().as_str().unwrap_or_default().to_string();
        assert!(msg.contains("per-shard"), "op {op} (conn {i}): {msg}");
    }
    // A backend, probed directly, still answers its own health with its
    // shard id — the router/backend distinction is visible on the wire.
    router.shutdown();
}

#[test]
fn draining_router_finishes_open_connections_with_refusals_not_resets() {
    let (router, addr) = start_tcp_router(2);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            b"{\"op\":\"optimize\",\"version\":2,\"arch\":\"sync-bus\",\"n\":256,\
              \"stencil\":\"5pt\",\"shape\":\"square\",\"procs\":64}\n",
        )
        .expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("first reply");
    assert!(first.contains(r#""ok":true"#), "{first}");

    // Shutdown with the connection open: the stream flushes and closes
    // cleanly (EOF), never a reset mid-reply.
    let done = std::thread::spawn(move || router.shutdown());
    let mut rest = String::new();
    while reader.read_line(&mut rest).expect("read to EOF") > 0 {}
    done.join().expect("shutdown");
}

#[test]
fn hostile_nesting_answers_parse_in_slot_and_the_router_keeps_serving() {
    let (router, addr) = start_tcp_router(2);
    // 20 000 bytes of `[` would overflow an unbounded recursive
    // reader's stack. The router parses every line before scattering,
    // so it must answer the parse error in-slot itself.
    let hostile = "[".repeat(20_000);
    let good = r#"{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt","shape":"square","procs":64}"#;
    let replies = roundtrip(addr, &[&hostile, good]);
    assert_eq!(replies.len(), 2, "{replies:?}");
    let v = jsonl::parse(&replies[0]).expect("reply is JSON");
    assert_eq!(v.get("ok"), Some(&jsonl::Json::Bool(false)), "{}", replies[0]);
    assert_eq!(v.get("version").unwrap().as_usize(), Some(2), "{}", replies[0]);
    assert_eq!(v.get("error_kind").unwrap().as_str(), Some("parse"), "{}", replies[0]);
    assert_eq!(v.get("line").unwrap().as_usize(), Some(1), "{}", replies[0]);

    let engine = Engine::default();
    let q = optimize(256);
    let response = engine.run_batch(std::slice::from_ref(&q)).responses.remove(0);
    assert_eq!(replies[1], jsonl::render_response(&q, &response, WIRE_VERSION, 2));

    // The process survived: a fresh connection still answers.
    let replies = roundtrip(addr, &[good]);
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(replies[0], jsonl::render_response(&q, &response, WIRE_VERSION, 1));
    router.shutdown();
}
