//! The serving wire: JSONL framing rules and the one per-line dispatch
//! path every TCP tier shares.
//!
//! The wire is exactly `parspeed batch`'s wire-v2 JSONL (see
//! `crates/engine/src/README.md`), streamed instead of slurped: one JSON
//! request object per line in, one JSON response object per non-empty
//! input line out, in input order. The same compatibility rules apply —
//! v2 lines answer in v2 shape, v1-versioned (or unversioned) lines are
//! accepted, counted, and answered in the legacy v1 shape, with one
//! deprecation note logged per connection at close, matching file mode's
//! stderr note. A line that fails to parse answers
//! `{"ok":false,"line":N,...}` in its own slot and poisons nothing: not
//! the connection (later lines still answer) and not the batcher (other
//! clients' in-flight requests never see it).
//!
//! [`process_line`] is the only place a request line is parsed: it
//! allocates the reply slot, tokenizes once, looks the `op` up in the
//! tier's serving-op table ([`WireHandler::serve_op`]), and otherwise
//! parses the query, clamps its deadline, and hands it to the tier's
//! admission ([`WireHandler::admit`]). What differs by tier is only
//! those two methods. A standalone server answers four serving-only ops
//! in the request's own reply slot without entering the batcher:
//! `{"op":"stats"}` answers the [`ServerStats`](crate::ServerStats)
//! snapshot (byte-frozen shape); `{"op":"metrics"}` answers the full
//! [`MetricsSnapshot`](crate::MetricsSnapshot) — the same counters plus
//! engine time, the dedup factor, and one latency-histogram summary per
//! pipeline stage; `{"op":"trace"}` answers the ring of recent request
//! traces (empty unless the server runs with `--trace N`);
//! `{"op":"health"}` answers the byte-frozen liveness record
//! ([`health_to_json`](crate::health_to_json)) load-balancer probes
//! poll without paying for a counter snapshot. The sharded router
//! supplies its own table (`health`, `topology`, `metrics`, `warmup`,
//! and in-slot `unsupported` refusals of `stats`/`trace`).

use crate::conn::{ConnShared, Delivery};
use parspeed_engine::{jsonl, ParspeedError, Query, WIRE_VERSION};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a serving tier plugs into the event loop: connection setup, its
/// serving-op table, its admission step, and the drain flag. The loop
/// owns sockets, buffers, and backpressure; one shared dispatch owns
/// parsing; the handler owns only what differs by tier.
pub trait WireHandler: Send + Sync + 'static {
    /// Allocates the shared per-connection state (id, reorder buffer)
    /// for a newly accepted connection.
    fn connect(&self) -> Arc<ConnShared>;

    /// The tier's serving-op table: the reply record for a serving-only
    /// `op`, an in-slot error (rendered in the current wire shape) for
    /// an op the tier refuses, or `None` when `op` is not a serving op
    /// and the line is parsed as an engine query.
    fn serve_op(&self, op: &str) -> Option<Result<jsonl::Json, ParspeedError>>;

    /// Admits one parsed engine query. `shed`, when `Some`, is the
    /// loop's write-backpressure verdict: the query must be refused
    /// in-slot with the overload answer carrying this message.
    fn admit(&self, conn: &Arc<ConnShared>, request: WireRequest, shed: Option<&str>);

    /// The connection's read half ended (EOF, error, or drain) after
    /// `v1_lines` deprecated wire-v1 request lines: emit any
    /// per-connection notes. The loop has already marked the reorder
    /// buffer EOF.
    fn disconnect(&self, _conn: &ConnShared, _v1_lines: u64) {}

    /// Whether the tier is draining for shutdown (checked every tick;
    /// the loop then stops accepting/reading, flushes, and exits).
    fn draining(&self) -> bool;
}

/// One parsed engine-query line on its way to a tier's admission step.
#[derive(Debug)]
pub struct WireRequest {
    /// The line's reply slot on its connection.
    pub seq: u64,
    /// The parsed query.
    pub query: Query,
    /// The wire version the reply is rendered in.
    pub version: u32,
    /// 1-based input line number (echoed in error replies).
    pub line_no: usize,
    /// When the line was admitted — the deadline budget's origin.
    pub submitted: Instant,
    /// Absolute deadline from the line's `deadline_ms`, if any.
    pub deadline: Option<Instant>,
}

/// Handles one trimmed, non-empty wire line for a connection: allocates
/// the line's reply slot, answers serving-only ops from the tier's
/// table, and either admits the query or answers the parse error
/// in-slot.
///
/// `shed` carries the event-loop write-backpressure verdict through to
/// [`WireHandler::admit`]. Serving-only ops and parse errors still
/// answer — their replies are small and a health probe must work
/// *especially* under overload.
pub(crate) fn process_line(
    handler: &dyn WireHandler,
    conn: &Arc<ConnShared>,
    text: &str,
    line_no: usize,
    v1_lines: &mut u64,
    shed: Option<&str>,
) {
    let seq = conn.alloc_seq();
    // One tokenization per line: the serving-only ops are intercepted
    // from the parsed value (the engine's reader does not know them),
    // everything else becomes a query from the same value. A line that
    // is not JSON at all has no version field to honor, so it answers
    // in the *current* wire shape (carrying `error_kind`), not the
    // legacy v1 one — v2 clients never receive replies missing v2
    // machinery.
    let current = |error| jsonl::LineError { version: WIRE_VERSION, error };
    let parsed = match jsonl::parse(text) {
        Ok(v) => {
            match v.get("op").and_then(jsonl::Json::as_str).and_then(|op| handler.serve_op(op)) {
                Some(Ok(reply)) => {
                    conn.route(seq, Delivery::Line(reply.render()));
                    return;
                }
                Some(Err(e)) => Err(current(e)),
                None => jsonl::parse_query_value(&v),
            }
        }
        Err(e) => Err(current(ParspeedError::parse(e))),
    };
    match parsed {
        Ok(parsed) => {
            if parsed.version < WIRE_VERSION {
                *v1_lines += 1;
            }
            let now = Instant::now();
            let request = WireRequest {
                seq,
                query: parsed.query,
                version: parsed.version,
                line_no,
                submitted: now,
                // The budget starts at admission: what is left after
                // queueing and batching is what the engine may use. A
                // budget too large to represent (`u64::MAX` ms) is no
                // deadline at all — `checked_add` saturates to `None`
                // instead of panicking the frontend on `Instant`
                // overflow.
                deadline: parsed
                    .deadline_ms
                    .and_then(|ms| now.checked_add(Duration::from_millis(ms))),
            };
            handler.admit(conn, request, shed);
        }
        Err(e) => conn.route(seq, Delivery::Line(jsonl::render_parse_error(&e, line_no))),
    }
}

/// Answers a request line longer than the loop's `max_line` with a
/// parse error naming the limit. The line is being discarded and was
/// never parsed, so it has no version to honor — current wire shape,
/// like any other unparseable line.
pub(crate) fn answer_oversize(conn: &ConnShared, line_no: usize, max_line: usize) {
    let seq = conn.alloc_seq();
    let e = jsonl::LineError {
        version: WIRE_VERSION,
        error: ParspeedError::parse(format!(
            "request line exceeded the {max_line}-byte limit; \
             excess discarded up to the next newline"
        )),
    };
    conn.route(seq, Delivery::Line(jsonl::render_parse_error(&e, line_no)));
}
