//! `Client::submit_then`: a reply handed to a completion callback instead
//! of the client's ordered stream. Every answer path — a served reply,
//! the admission refusals, an expired deadline, and the panic shield's
//! `internal` — must reach the callback exactly once.

use parspeed_chaos::FaultPlan;
use parspeed_engine::{ArchKind, Engine, Query, Request, Response};
use parspeed_server::{Client, Server, ServerConfig};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

fn optimize(n: usize) -> Query {
    Request::optimize(ArchKind::SyncBus, n).procs(32).query()
}

/// What one callback saw: the reply and the thread it ran on.
type Answer = (Response, ThreadId);

/// Submits through `submit_then`, reporting every callback invocation
/// on the returned channel.
fn submit(client: &Client, query: Query, deadline: Option<Instant>) -> mpsc::Receiver<Answer> {
    let (tx, rx) = mpsc::channel();
    client.submit_then(query, deadline, move |response| {
        let _ = tx.send((response, std::thread::current().id()));
    });
    rx
}

/// The one answer on `rx`; panics on none, and on a second one (the
/// sender is gone once the callback ran, so a clean disconnect proves
/// the callback ran exactly once).
fn exactly_once(rx: &mpsc::Receiver<Answer>) -> Answer {
    let answer = rx.recv_timeout(Duration::from_secs(10)).expect("callback never ran");
    assert!(
        matches!(
            rx.recv_timeout(Duration::from_millis(50)),
            Err(mpsc::RecvTimeoutError::Disconnected)
        ),
        "callback ran twice, or its closure was never released"
    );
    answer
}

fn kind(response: &Response) -> &'static str {
    match response {
        Response::Invalid(e) => e.kind(),
        _ => "ok",
    }
}

#[test]
fn a_served_reply_calls_back_once_on_a_worker_thread() {
    let server = Server::start(Arc::new(Engine::default()), ServerConfig::default());
    let client = server.client();
    let (response, thread) = exactly_once(&submit(&client, optimize(256), None));
    let expect = Engine::default().run_batch(&[optimize(256)]).responses.remove(0);
    assert_eq!(response, expect);
    assert_ne!(thread, std::thread::current().id(), "a served reply calls back on a worker");
    let stats = server.shutdown();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
}

#[test]
fn a_full_queue_refuses_synchronously_inside_submit() {
    // One worker, a long window, room for one pending request: the
    // first submission holds the queue while the second arrives.
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig {
            window: Duration::from_millis(300),
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let first = submit(&client, optimize(64), None);
    let refused = submit(&client, optimize(128), None);
    // Already answered when `submit_then` returned, on this thread.
    let (response, thread) = refused.try_recv().expect("refusal runs inside submit");
    assert_eq!(kind(&response), "overloaded");
    assert!(response_text(&response).contains("queue is full"), "{response:?}");
    assert_eq!(thread, std::thread::current().id());
    assert!(matches!(refused.try_recv(), Err(mpsc::TryRecvError::Disconnected)));
    assert_eq!(kind(&exactly_once(&first).0), "ok");
    server.shutdown();
}

#[test]
fn a_draining_server_refuses_through_the_callback() {
    let server = Server::start(Arc::new(Engine::default()), ServerConfig::default());
    let client = server.client();
    server.shutdown();
    let rx = submit(&client, optimize(64), None);
    let (response, thread) = rx.try_recv().expect("refusal runs inside submit");
    assert_eq!(kind(&response), "overloaded");
    assert!(response_text(&response).contains("draining"), "{response:?}");
    assert_eq!(thread, std::thread::current().id());
    assert!(matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)));
}

#[test]
fn an_expired_deadline_calls_back_with_the_budget_kind() {
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig { window: Duration::from_millis(50), workers: 1, ..ServerConfig::default() },
    );
    let client = server.client();
    let (response, _) = exactly_once(&submit(&client, optimize(64), Some(Instant::now())));
    assert_eq!(kind(&response), "deadline_exceeded");
    assert_eq!(server.resilience().snapshot().deadline_missed, 1);
    server.shutdown();
}

#[test]
fn the_panic_shield_calls_back_with_internal() {
    let server = Server::start(
        Arc::new(Engine::default()),
        ServerConfig { workers: 1, ..ServerConfig::default() },
    );
    server.install_fault_plan(Some(Arc::new(FaultPlan::parse("panic@1", 7).expect("plan"))));
    let client = server.client();
    let (response, _) = exactly_once(&submit(&client, optimize(64), None));
    assert_eq!(kind(&response), "internal");
    assert!(response_text(&response).contains("panicked"), "{response:?}");
    // The worker survived and the next callback carries a real result.
    assert_eq!(kind(&exactly_once(&submit(&client, optimize(64), None)).0), "ok");
    assert_eq!(server.resilience().snapshot().worker_panics, 1);
    server.shutdown();
}

fn response_text(response: &Response) -> String {
    match response {
        Response::Invalid(e) => e.to_string(),
        other => format!("{other:?}"),
    }
}
