//! JSONL wire format for batch requests and responses — **wire v2**.
//!
//! One JSON object per line; the schema is documented in
//! `crates/engine/src/README.md`. Every request line may carry an explicit
//! `"version"` field: 2 is current, 1 (the PR-1 era implicit schema) is
//! accepted and answered in its legacy shape so old readers keep working,
//! and anything else is a parse error. v2 responses lead with a
//! `"version":2` field and error responses carry a machine-readable
//! `"error_kind"`; error responses of either version carry the 1-based
//! input line number in `"line"`.
//!
//! The environment has no serde, so this module carries a small, strict
//! JSON reader/writer of its own. Floats are written with Rust's
//! shortest-round-trip formatting and parsed with `str::parse::<f64>`, so
//! a value survives a serialize → parse round trip bit-identically.

use crate::error::ParspeedError;
use crate::plan::PointLabel;
use crate::request::{
    ArchKind, CheckSpec, EvalOutcome, EvalValue, Lever, MachineSpec, MinSizeVariant, Query,
    ShapeKey, SimArchKind, SolverKind, StencilSpec, WorkloadSpec,
};
use crate::service::WIRE_VERSION;
use crate::{BatchTelemetry, Response};
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON numbers are doubles on this wire).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= usize::MAX as f64 => {
                Some(*x as usize)
            }
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), with deterministic field
    /// order (source order).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    let integral =
                        x.fract() == 0.0 && x.abs() < 1e15 && !(*x == 0.0 && x.is_sign_negative());
                    if integral {
                        // Counts print bare; the round trip is still exact.
                        let _ = write!(out, "{}", *x as i64);
                    } else {
                        // Rust's Debug float formatting is shortest-round-
                        // trip and always a valid JSON number.
                        let _ = write!(out, "{x:?}");
                    }
                } else {
                    out.push_str("null"); // JSON has no NaN/inf
                }
            }
            Json::Str(s) => {
                out.push('"');
                for ch in s.chars() {
                    match ch {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The reader recurses
/// once per level, so without a bound one line of `[`s could overflow
/// the parsing thread's stack; a deeper document is a parse error
/// instead. No request schema nests more than a few levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document (must consume the whole input). Nesting
/// deeper than [`MAX_DEPTH`] is a parse error.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", ch as char))
    }
}

fn read_hex4(b: &[u8], start: usize) -> Result<u32, String> {
    let hex = b.get(start..start + 4).ok_or("truncated \\u escape")?;
    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
    u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))
}

/// Parses the value at `pos`, which sits inside `depth` open arrays or
/// objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {pos}"))
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {pos}")),
                };
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match b.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let hi = read_hex4(b, *pos + 1)?;
                                *pos += 4;
                                let code = if (0xD800..=0xDBFF).contains(&hi) {
                                    // High surrogate: a \\u low surrogate
                                    // must follow; combine the pair into
                                    // one scalar.
                                    if b.get(*pos + 1..*pos + 3) != Some(b"\\u".as_slice()) {
                                        return Err(
                                            "high surrogate not followed by \\u escape".into()
                                        );
                                    }
                                    let lo = read_hex4(b, *pos + 3)?;
                                    if !(0xDC00..=0xDFFF).contains(&lo) {
                                        return Err(format!(
                                            "high surrogate followed by \\u{lo:04x}, not a low surrogate"
                                        ));
                                    }
                                    *pos += 6;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    hi
                                };
                                s.push(
                                    char::from_u32(code)
                                        .ok_or("lone low surrogate in \\u escape")?,
                                );
                            }
                            _ => return Err(format!("bad escape at byte {pos}")),
                        }
                        *pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar.
                        let rest = std::str::from_utf8(&b[*pos..])
                            .map_err(|_| "invalid UTF-8 in string")?;
                        let ch = rest.chars().next().expect("nonempty");
                        s.push(ch);
                        *pos += ch.len_utf8();
                    }
                }
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number")?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}` at byte {start}"))
        }
    }
}

fn parse_machine(v: Option<&Json>) -> Result<MachineSpec, String> {
    let mut spec = MachineSpec::default();
    let Some(obj) = v else { return Ok(spec) };
    let Json::Obj(fields) = obj else {
        return Err("`machine` must be an object".into());
    };
    for (key, value) in fields {
        match key.as_str() {
            "preset" => match value.as_str() {
                Some("paper") => spec.flex32 = false,
                Some("flex32") => spec.flex32 = true,
                _ => return Err("machine preset must be \"paper\" or \"flex32\"".into()),
            },
            "tfp" => spec.tfp = Some(req_f64(value, "machine.tfp")?),
            "b" => spec.b = Some(req_f64(value, "machine.b")?),
            "c" => spec.c = Some(req_f64(value, "machine.c")?),
            "alpha" => spec.alpha = Some(req_f64(value, "machine.alpha")?),
            "beta" => spec.beta = Some(req_f64(value, "machine.beta")?),
            "packet" => spec.packet = Some(req_usize(value, "machine.packet")?),
            "w" => spec.w = Some(req_f64(value, "machine.w")?),
            other => return Err(format!("unknown machine field `{other}`")),
        }
    }
    Ok(spec)
}

fn req_f64(v: &Json, what: &str) -> Result<f64, String> {
    v.as_f64().ok_or_else(|| format!("`{what}` must be a number"))
}

fn req_usize(v: &Json, what: &str) -> Result<usize, String> {
    v.as_usize().ok_or_else(|| format!("`{what}` must be a non-negative integer"))
}

fn req_str<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    v.as_str().ok_or_else(|| format!("`{what}` must be a string"))
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn parse_stencil(v: &Json) -> Result<StencilSpec, String> {
    match v {
        Json::Str(name) => StencilSpec::parse(name),
        Json::Obj(_) => {
            let e = req_f64(field(v, "e")?, "stencil.e")?;
            let k = req_usize(field(v, "k")?, "stencil.k")?;
            Ok(StencilSpec::Custom { e, k })
        }
        _ => Err("`stencil` must be a name or {\"e\":..,\"k\":..}".into()),
    }
}

fn parse_workload(obj: &Json) -> Result<WorkloadSpec, String> {
    Ok(WorkloadSpec {
        n: req_usize(field(obj, "n")?, "n")?,
        stencil: parse_stencil(field(obj, "stencil")?)?,
        shape: ShapeKey::parse(req_str(field(obj, "shape")?, "shape")?)?,
    })
}

/// `procs` is optional; absent or `0` means unlimited.
fn parse_procs(obj: &Json) -> Result<Option<usize>, String> {
    match obj.get("procs") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let p = req_usize(v, "procs")?;
            Ok(if p == 0 { None } else { Some(p) })
        }
    }
}

/// Rejects top-level fields the op does not define, so a typo'd optional
/// field (e.g. `memory_word`) errors instead of silently changing the
/// query's meaning — the same strictness `machine` objects already get.
/// `version` is always allowed (every op is versioned), and so is
/// `deadline_ms` (every op may carry a deadline; the serving tier reads
/// it, the query does not).
fn check_fields(obj: &Json, op: &str, allowed: &[&str]) -> Result<(), String> {
    let Json::Obj(fields) = obj else { return Err("request must be an object".into()) };
    for (key, _) in fields {
        if key != "op"
            && key != "version"
            && key != "deadline_ms"
            && !allowed.contains(&key.as_str())
        {
            return Err(format!(
                "unknown field `{key}` for op `{op}`; allowed: {}",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

/// A request line parsed into a query plus the wire version it spoke
/// (lines without a `version` field are v1).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLine {
    /// The parsed query.
    pub query: Query,
    /// The line's declared wire version (1 when absent).
    pub version: u32,
    /// The optional `deadline_ms` budget the line carried: how many
    /// milliseconds the caller gives the serving tier before it would
    /// rather have a `deadline_exceeded` answer than keep waiting.
    /// `None` when absent; never part of the [`Query`] itself (two
    /// lines differing only in deadline dedup to one evaluation).
    pub deadline_ms: Option<u64>,
}

/// A request line that never became a [`Query`]: what went wrong plus the
/// wire version the response should speak (1 when the line was not even
/// valid JSON, so the renderer falls back to the legacy shape).
#[derive(Debug, Clone, PartialEq)]
pub struct LineError {
    /// The wire version the line declared (1 when unknown).
    pub version: u32,
    /// The parse failure.
    pub error: ParspeedError,
}

/// Parses one request line into a [`ParsedLine`]. The line is tokenized
/// exactly once; its declared version is read first so even a line whose
/// query is malformed gets a version-appropriate error response.
pub fn parse_query(line: &str) -> Result<ParsedLine, LineError> {
    let fail = |version, msg| LineError { version, error: ParspeedError::parse(msg) };
    let obj = parse(line).map_err(|e| fail(1, e))?;
    parse_query_value(&obj)
}

/// [`parse_query`] for an already-tokenized request object — for readers
/// that must inspect the raw JSON first (the streaming server peeks at
/// the op to intercept serving-only requests) without paying a second
/// tokenization pass.
pub fn parse_query_value(obj: &Json) -> Result<ParsedLine, LineError> {
    let fail = |version, msg| LineError { version, error: ParspeedError::parse(msg) };
    let version = version_of(obj).map_err(|e| fail(1, e))?;
    let deadline_ms = deadline_of(obj).map_err(|e| fail(version, e))?;
    let query = query_of(obj).map_err(|e| fail(version, e))?;
    Ok(ParsedLine { query, version, deadline_ms })
}

fn deadline_of(obj: &Json) -> Result<Option<u64>, String> {
    match obj.get("deadline_ms") {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_usize() {
            Some(0) => Err("`deadline_ms` must be a positive integer (got 0)".into()),
            Some(ms) => Ok(Some(ms as u64)),
            None => Err(format!(
                "`deadline_ms` must be a positive integer of milliseconds, got {}",
                v.render()
            )),
        },
    }
}

fn version_of(obj: &Json) -> Result<u32, String> {
    match obj.get("version") {
        None => Ok(1),
        Some(v) => match v.as_usize() {
            Some(1) => Ok(1),
            Some(n) if n == WIRE_VERSION as usize => Ok(WIRE_VERSION),
            _ => Err(format!(
                "unsupported `version` {}; this reader speaks v{WIRE_VERSION} (v1 still accepted)",
                v.render()
            )),
        },
    }
}

fn query_of(obj: &Json) -> Result<Query, String> {
    let op = req_str(field(obj, "op")?, "op")?;
    match op {
        "optimize" => {
            check_fields(
                obj,
                op,
                &["arch", "machine", "n", "stencil", "shape", "procs", "memory_words"],
            )?;
            Ok(Query::Optimize {
                arch: ArchKind::parse(req_str(field(obj, "arch")?, "arch")?)?,
                machine: parse_machine(obj.get("machine"))?,
                workload: parse_workload(obj)?,
                procs: parse_procs(obj)?,
                memory_words: match obj.get("memory_words") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(req_f64(v, "memory_words")?),
                },
            })
        }
        "minsize" => {
            check_fields(obj, op, &["variant", "machine", "e", "k", "procs"])?;
            Ok(Query::MinSize {
                variant: MinSizeVariant::parse(req_str(field(obj, "variant")?, "variant")?)?,
                machine: parse_machine(obj.get("machine"))?,
                e: req_f64(field(obj, "e")?, "e")?,
                k: req_f64(field(obj, "k")?, "k")?,
                procs: req_usize(field(obj, "procs")?, "procs")?,
            })
        }
        "isoeff" => {
            check_fields(obj, op, &["arch", "machine", "stencil", "shape", "procs", "efficiency"])?;
            Ok(Query::Isoefficiency {
                arch: ArchKind::parse(req_str(field(obj, "arch")?, "arch")?)?,
                machine: parse_machine(obj.get("machine"))?,
                stencil: parse_stencil(field(obj, "stencil")?)?,
                shape: ShapeKey::parse(req_str(field(obj, "shape")?, "shape")?)?,
                procs: req_usize(field(obj, "procs")?, "procs")?,
                efficiency: req_f64(field(obj, "efficiency")?, "efficiency")?,
            })
        }
        "leverage" => {
            check_fields(
                obj,
                op,
                &["machine", "n", "stencil", "shape", "procs", "lever", "factor"],
            )?;
            Ok(Query::Leverage {
                machine: parse_machine(obj.get("machine"))?,
                workload: parse_workload(obj)?,
                procs: parse_procs(obj)?,
                lever: Lever::parse(req_str(field(obj, "lever")?, "lever")?)?,
                factor: req_f64(field(obj, "factor")?, "factor")?,
            })
        }
        "sweep" => {
            check_fields(
                obj,
                op,
                &["arch", "machine", "stencil", "shape", "procs", "n_from", "n_to"],
            )?;
            let str_list = |key: &str| -> Result<Vec<&str>, String> {
                let v = field(obj, key)?;
                let arr = v.as_arr().ok_or_else(|| format!("`{key}` must be an array of names"))?;
                arr.iter().map(|e| req_str(e, key)).collect()
            };
            let budgets = match obj.get("procs") {
                None | Some(Json::Null) => vec![None],
                Some(v) => {
                    let arr = v.as_arr().ok_or("`procs` must be an array for sweeps")?;
                    arr.iter()
                        .map(|e| match e {
                            Json::Null => Ok(None),
                            other => {
                                let p = req_usize(other, "procs")?;
                                Ok(if p == 0 { None } else { Some(p) })
                            }
                        })
                        .collect::<Result<Vec<_>, String>>()?
                }
            };
            let stencils = match field(obj, "stencil")? {
                Json::Arr(items) => {
                    items.iter().map(parse_stencil).collect::<Result<Vec<_>, _>>()?
                }
                single => vec![parse_stencil(single)?],
            };
            Ok(Query::Sweep {
                archs: str_list("arch")?
                    .into_iter()
                    .map(ArchKind::parse)
                    .collect::<Result<Vec<_>, _>>()?,
                machine: parse_machine(obj.get("machine"))?,
                stencils,
                shapes: str_list("shape")?
                    .into_iter()
                    .map(ShapeKey::parse)
                    .collect::<Result<Vec<_>, _>>()?,
                budgets,
                n_from: req_usize(field(obj, "n_from")?, "n_from")?,
                n_to: req_usize(field(obj, "n_to")?, "n_to")?,
            })
        }
        "table1" => {
            check_fields(obj, op, &["machine", "n", "stencil"])?;
            Ok(Query::Table1 {
                machine: parse_machine(obj.get("machine"))?,
                n: req_usize(field(obj, "n")?, "n")?,
                stencil: match obj.get("stencil") {
                    None => StencilSpec::FivePoint,
                    Some(v) => parse_stencil(v)?,
                },
            })
        }
        "compare" => {
            check_fields(obj, op, &["machine", "n", "stencil", "shape", "procs"])?;
            Ok(Query::Compare {
                machine: parse_machine(obj.get("machine"))?,
                workload: parse_workload(obj)?,
                procs: parse_procs(obj)?,
            })
        }
        "simulate" => {
            check_fields(obj, op, &["arch", "machine", "n", "stencil", "shape", "procs"])?;
            Ok(Query::Simulate {
                arch: SimArchKind::parse(req_str(field(obj, "arch")?, "arch")?)?,
                machine: parse_machine(obj.get("machine"))?,
                workload: parse_workload(obj)?,
                procs: req_usize(field(obj, "procs")?, "procs")?,
            })
        }
        "solve" => {
            check_fields(
                obj,
                op,
                &["n", "solver", "tol", "stencil", "partitions", "max_iters", "check_policy"],
            )?;
            Ok(Query::Solve {
                n: req_usize(field(obj, "n")?, "n")?,
                solver: SolverKind::parse(req_str(field(obj, "solver")?, "solver")?)?,
                tol: match obj.get("tol") {
                    None => 1e-8,
                    Some(v) => req_f64(v, "tol")?,
                },
                stencil: match obj.get("stencil") {
                    None => StencilSpec::FivePoint,
                    Some(v) => parse_stencil(v)?,
                },
                partitions: match obj.get("partitions") {
                    None => 4,
                    Some(v) => req_usize(v, "partitions")?,
                },
                max_iters: match obj.get("max_iters") {
                    None => 200_000,
                    Some(v) => req_usize(v, "max_iters")?,
                },
                // Absent = the solver's historical default schedule.
                check: match obj.get("check_policy") {
                    None => None,
                    Some(v) => Some(CheckSpec::parse(req_str(v, "check_policy")?)?),
                },
            })
        }
        "threads" => {
            check_fields(obj, op, &["n", "stencil", "shape", "threads", "iters", "repeats"])?;
            let threads = field(obj, "threads")?
                .as_arr()
                .ok_or("`threads` must be an array of positive counts")?
                .iter()
                .map(|v| req_usize(v, "threads"))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Query::Threads {
                n: req_usize(field(obj, "n")?, "n")?,
                stencil: match obj.get("stencil") {
                    None => StencilSpec::FivePoint,
                    Some(v) => parse_stencil(v)?,
                },
                shape: match obj.get("shape") {
                    None => ShapeKey::Strip,
                    Some(v) => ShapeKey::parse(req_str(v, "shape")?)?,
                },
                threads,
                iters: match obj.get("iters") {
                    None => 20,
                    Some(v) => req_usize(v, "iters")?,
                },
                repeats: match obj.get("repeats") {
                    None => 3,
                    Some(v) => req_usize(v, "repeats")?,
                },
            })
        }
        "experiment" => {
            check_fields(obj, op, &["id", "quick"])?;
            Ok(Query::Experiment {
                id: req_str(field(obj, "id")?, "id")?.to_string(),
                quick: match obj.get("quick") {
                    None => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err("`quick` must be a boolean".into()),
                },
            })
        }
        other => Err(format!(
            "unknown op `{other}`; one of: optimize, minsize, isoeff, leverage, sweep, table1, \
             compare, simulate, solve, threads, experiment"
        )),
    }
}

fn value_fields(value: &EvalValue) -> Vec<(String, Json)> {
    match value {
        EvalValue::Optimum { processors, area, cycle_time, speedup, efficiency, used_all } => {
            vec![
                ("processors".into(), Json::Num(*processors as f64)),
                ("area".into(), Json::Num(*area)),
                ("cycle_time".into(), Json::Num(*cycle_time)),
                ("speedup".into(), Json::Num(*speedup)),
                ("efficiency".into(), Json::Num(*efficiency)),
                ("used_all".into(), Json::Bool(*used_all)),
            ]
        }
        EvalValue::MinSize { n_side, log2_points } => vec![
            ("n_side".into(), Json::Num(*n_side)),
            ("log2_points".into(), Json::Num(*log2_points)),
        ],
        EvalValue::Isoefficiency { n } => vec![("n".into(), Json::Num(*n as f64))],
        EvalValue::Leverage { baseline, upgraded, factor } => vec![
            ("baseline".into(), Json::Num(*baseline)),
            ("upgraded".into(), Json::Num(*upgraded)),
            ("factor".into(), Json::Num(*factor)),
        ],
        EvalValue::Table1 { rows } => vec![(
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("architecture".into(), Json::Str(r.architecture.into())),
                            ("optimal_speedup".into(), Json::Num(r.optimal_speedup)),
                            ("formula".into(), Json::Str(r.formula.into())),
                        ])
                    })
                    .collect(),
            ),
        )],
        EvalValue::Simulate { cycle_time, max_compute, comm_fraction, predicted, seq_time } => {
            vec![
                ("cycle_time".into(), Json::Num(*cycle_time)),
                ("max_compute".into(), Json::Num(*max_compute)),
                ("comm_fraction".into(), Json::Num(*comm_fraction)),
                ("predicted".into(), Json::Num(*predicted)),
                ("seq_time".into(), Json::Num(*seq_time)),
            ]
        }
        EvalValue::Solve {
            converged,
            iterations,
            final_diff,
            max_error,
            global_reductions,
            resumed_from,
        } => {
            let mut fields = vec![
                ("converged".into(), Json::Bool(*converged)),
                ("iterations".into(), Json::Num(*iterations as f64)),
                ("final_diff".into(), Json::Num(*final_diff)),
                ("max_error".into(), Json::Num(*max_error)),
            ];
            if let Some(r) = global_reductions {
                fields.push(("global_reductions".into(), Json::Num(*r as f64)));
            }
            if let Some(from) = resumed_from {
                fields.push(("resumed_from_iteration".into(), Json::Num(*from as f64)));
            }
            fields
        }
        EvalValue::Threads { points } => vec![(
            "points".into(),
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("threads".into(), Json::Num(p.threads as f64)),
                            ("secs_per_iter".into(), Json::Num(p.secs_per_iter)),
                            ("speedup".into(), Json::Num(p.speedup)),
                        ])
                    })
                    .collect(),
            ),
        )],
        EvalValue::Report(text) => vec![("text".into(), Json::Str(text.clone()))],
    }
}

/// The leading fields of a response object: `version` first on wire v2,
/// nothing extra on legacy v1.
fn response_head(op: &str, version: u32) -> Vec<(String, Json)> {
    let mut fields = Vec::new();
    if version >= WIRE_VERSION {
        fields.push(("version".into(), Json::Num(WIRE_VERSION as f64)));
    }
    fields.push(("op".into(), Json::Str(op.into())));
    fields
}

fn error_fields(e: &ParspeedError, version: u32, line: usize) -> Vec<(String, Json)> {
    let mut fields =
        vec![("ok".into(), Json::Bool(false)), ("line".into(), Json::Num(line as f64))];
    if version >= WIRE_VERSION {
        fields.push(("error_kind".into(), Json::Str(e.kind().into())));
    }
    fields.push(("error".into(), Json::Str(e.to_string())));
    fields
}

fn outcome_obj(op: &str, outcome: &EvalOutcome, version: u32, line: usize) -> Json {
    let mut fields = response_head(op, version);
    match outcome {
        Ok(value) => {
            fields.push(("ok".into(), Json::Bool(true)));
            fields.extend(value_fields(value));
        }
        Err(e) => fields.extend(error_fields(e, version, line)),
    }
    Json::Obj(fields)
}

fn point_obj(label: &PointLabel, outcome: &EvalOutcome) -> Json {
    let mut fields = vec![
        ("arch".into(), Json::Str(label.arch.into())),
        ("n".into(), Json::Num(label.n as f64)),
        ("stencil".into(), Json::Str(label.stencil.clone())),
        ("shape".into(), Json::Str(label.shape.into())),
        ("procs".into(), Json::Str(label.budget.clone())),
    ];
    match outcome {
        Ok(value) => {
            fields.push(("ok".into(), Json::Bool(true)));
            fields.extend(value_fields(value));
        }
        Err(e) => {
            fields.push(("ok".into(), Json::Bool(false)));
            fields.push(("error".into(), Json::Str(e.to_string())));
        }
    }
    Json::Obj(fields)
}

/// The wire op name of a query.
pub fn op_name(query: &Query) -> &'static str {
    match query {
        Query::Optimize { .. } => "optimize",
        Query::MinSize { .. } => "minsize",
        Query::Isoefficiency { .. } => "isoeff",
        Query::Leverage { .. } => "leverage",
        Query::Sweep { .. } => "sweep",
        Query::Table1 { .. } => "table1",
        Query::Compare { .. } => "compare",
        Query::Simulate { .. } => "simulate",
        Query::Solve { .. } => "solve",
        Query::Threads { .. } => "threads",
        Query::Experiment { .. } => "experiment",
    }
}

/// Serializes one response line in the shape of the request's wire
/// `version`; `line` is the 1-based input line number, carried on error
/// responses.
pub fn render_response(query: &Query, response: &Response, version: u32, line: usize) -> String {
    let op = op_name(query);
    match response {
        Response::Single(outcome) => outcome_obj(op, outcome, version, line).render(),
        Response::Sweep(points) => {
            let mut fields = response_head(op, version);
            fields.push(("ok".into(), Json::Bool(true)));
            fields.push((
                "points".into(),
                Json::Arr(points.iter().map(|(l, o)| point_obj(l, o)).collect()),
            ));
            Json::Obj(fields).render()
        }
        Response::Invalid(e) => {
            let mut fields = response_head(op, version);
            fields.extend(error_fields(e, version, line));
            Json::Obj(fields).render()
        }
    }
}

/// Serializes a parse failure for one input line (the line never became a
/// [`Query`]); `line` is the 1-based input line number. Lines that
/// declared wire v2 get the v2 error shape (`version`, `error_kind`).
pub fn render_parse_error(e: &LineError, line: usize) -> String {
    let mut fields = Vec::new();
    if e.version >= WIRE_VERSION {
        fields.push(("version".into(), Json::Num(WIRE_VERSION as f64)));
    }
    fields.extend(error_fields(&e.error, e.version, line));
    Json::Obj(fields).render()
}

/// Serializes batch telemetry as a trailing JSONL record (always a
/// wire-v2 record — it is new in this schema).
pub fn render_telemetry(t: &BatchTelemetry) -> String {
    Json::Obj(vec![
        ("version".into(), Json::Num(WIRE_VERSION as f64)),
        ("op".into(), Json::Str("telemetry".into())),
        ("queries".into(), Json::Num(t.queries as f64)),
        ("atoms".into(), Json::Num(t.atoms as f64)),
        ("unique".into(), Json::Num(t.unique as f64)),
        ("dedup_factor".into(), Json::Num(t.dedup_factor())),
        ("cache_hits".into(), Json::Num(t.cache_hits as f64)),
        ("cache_hit_rate".into(), Json::Num(t.hit_rate())),
        ("evaluated".into(), Json::Num(t.evaluated as f64)),
        ("effects".into(), Json::Num(t.effects as f64)),
        ("wall_seconds".into(), Json::Num(t.wall_seconds)),
        ("queries_per_second".into(), Json::Num(t.queries_per_second())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert_eq!(parse(&nested(MAX_DEPTH - 1)).unwrap().as_arr().map(<[Json]>::len), Some(1));
        assert_eq!(parse(&nested(MAX_DEPTH)).unwrap().as_arr().map(<[Json]>::len), Some(1));
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e, format!("nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"));
        // Objects count toward the same bound, mixed with arrays.
        let mixed = |depth: usize| {
            let open: String =
                (0..depth).map(|i| if i % 2 == 0 { "{\"k\":" } else { "[" }).collect();
            let close: String =
                (0..depth).rev().map(|i| if i % 2 == 0 { "}" } else { "]" }).collect();
            format!("{open}0{close}")
        };
        assert!(parse(&mixed(MAX_DEPTH)).is_ok());
        assert!(parse(&mixed(MAX_DEPTH + 1)).unwrap_err().contains("nesting deeper"));
        // Far past the bound: an error, not a stack overflow.
        let e = parse(&"[".repeat(20_000)).unwrap_err();
        assert!(e.starts_with("nesting deeper than"), "{e}");
    }

    #[test]
    fn parses_scalars_and_structure() {
        let v = parse(r#"{"a":1,"b":[true,null,"x"],"c":{"d":-2.5e-3}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.0));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Json::Bool(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2.5e-3));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for x in [6.0, 0.13642e-6, 1.0 / 3.0, 1e-300, -0.0, 123_456_789.123_456_79] {
            let rendered = Json::Num(x).render();
            let back = parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} → {rendered} → {back}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line1\nline2\t\"quoted\" \\ done";
        let rendered = Json::Str(s.into()).render();
        assert_eq!(parse(&rendered).unwrap().as_str(), Some(s));
    }

    #[test]
    fn optimize_request_parses() {
        let parsed = parse_query(
            r#"{"op":"optimize","arch":"sync-bus","n":256,"stencil":"5pt","shape":"square","procs":64}"#,
        )
        .unwrap();
        assert_eq!(parsed.version, 1, "no version field means legacy v1");
        match parsed.query {
            Query::Optimize { arch, workload, procs, .. } => {
                assert_eq!(arch, ArchKind::SyncBus);
                assert_eq!(workload.n, 256);
                assert_eq!(procs, Some(64));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deadline_ms_rides_any_op_without_entering_the_query() {
        let with = parse_query(
            r#"{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt",
                "shape":"square","procs":64,"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(with.deadline_ms, Some(250));
        let without = parse_query(
            r#"{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt",
                "shape":"square","procs":64}"#,
        )
        .unwrap();
        assert_eq!(without.deadline_ms, None);
        // The deadline is an envelope field, not part of the query: the
        // two lines dedup to the same evaluation.
        assert_eq!(with.query, without.query);
        // Ops with no extra fields of their own carry it too.
        let ping = parse_query(
            r#"{"op":"minsize","version":2,"variant":"sync-strip",
            "e":6.0,"k":2,"procs":64,"deadline_ms":1}"#,
        )
        .unwrap();
        assert_eq!(ping.deadline_ms, Some(1));
    }

    #[test]
    fn deadline_ms_must_be_a_positive_integer() {
        for bad in [r#""soon""#, "0", "-5", "2.5", "true"] {
            let line = format!(
                r#"{{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt",
                    "shape":"square","procs":64,"deadline_ms":{bad}}}"#
            );
            let err = parse_query(&line).expect_err(&format!("accepted deadline_ms:{bad}"));
            assert_eq!(err.error.kind(), "parse", "deadline_ms:{bad}");
            assert_eq!(err.version, 2, "deadline errors keep the declared version");
            assert!(err.error.message().contains("deadline_ms"), "{}", err.error);
        }
    }

    #[test]
    fn sweep_request_with_machine_overrides_parses() {
        let parsed = parse_query(
            r#"{"op":"sweep","arch":["sync-bus","hypercube"],"stencil":["5pt",{"e":8.5,"k":2}],
                "shape":["square","strip"],"procs":[16,0],"n_from":64,"n_to":512,
                "machine":{"preset":"flex32","b":2e-6}}"#,
        )
        .unwrap();
        match parsed.query {
            Query::Sweep { archs, stencils, shapes, budgets, machine, .. } => {
                assert_eq!(archs.len(), 2);
                assert_eq!(stencils.len(), 2);
                assert!(matches!(stencils[1], StencilSpec::Custom { e, k } if e == 8.5 && k == 2));
                assert_eq!(shapes.len(), 2);
                assert_eq!(budgets, vec![Some(16), None]);
                assert!(machine.flex32);
                assert_eq!(machine.b, Some(2e-6));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        // Standard-JSON escaped astral char (😀 = U+1F600).
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // Writer emits the raw char; parsing that recovers it too.
        let rendered = Json::Str("\u{1F600}".into()).render();
        assert_eq!(parse(&rendered).unwrap().as_str(), Some("\u{1F600}"));
        // Broken pairs are rejected, not mangled.
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83dx""#).is_err());
        assert!(parse(r#""\ud83d\u0041""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn typoed_optional_fields_error_instead_of_vanishing() {
        // `memory_word` (typo) must not silently run unconstrained.
        let e = parse_query(
            r#"{"op":"optimize","arch":"sync-bus","n":64,"stencil":"5pt","shape":"square","memory_word":8}"#,
        )
        .unwrap_err()
        .error
        .to_string();
        assert!(e.contains("memory_word"), "{e}");
        assert!(e.contains("memory_words"), "should name the allowed fields: {e}");
        let e2 = parse_query(
            r#"{"op":"minsize","variant":"sync-strip","e":6.0,"k":1.0,"procs":8,"bogus":1}"#,
        )
        .unwrap_err()
        .error
        .to_string();
        assert!(e2.contains("bogus"), "{e2}");
    }

    #[test]
    fn unknown_fields_and_ops_error_loudly() {
        assert!(parse_query(r#"{"op":"frobnicate"}"#).is_err());
        assert!(parse_query(
            r#"{"op":"optimize","arch":"torus","n":1,"stencil":"5pt","shape":"square"}"#
        )
        .is_err());
        assert!(parse_query(r#"{"op":"optimize","n":1,"stencil":"5pt","shape":"square"}"#).is_err());
    }

    #[test]
    fn versions_are_read_and_bounded() {
        let v2 = parse_query(r#"{"op":"table1","version":2,"n":512,"stencil":"5pt"}"#).unwrap();
        assert_eq!(v2.version, 2);
        assert!(matches!(v2.query, Query::Table1 { n: 512, .. }));
        let err = parse_query(r#"{"op":"table1","version":7,"n":512}"#).unwrap_err();
        assert!(err.error.to_string().contains("version"), "{err:?}");
        assert_eq!(err.error.kind(), "parse");
        // A v2 line whose *query* is malformed still answers in v2 shape.
        let err = parse_query(r#"{"op":"frobnicate","version":2}"#).unwrap_err();
        assert_eq!(err.version, 2);
        let rendered = render_parse_error(&err, 9);
        let back = parse(&rendered).unwrap();
        assert_eq!(back.get("version").unwrap().as_usize(), Some(2));
        assert_eq!(back.get("error_kind").unwrap().as_str(), Some("parse"));
        assert_eq!(back.get("line").unwrap().as_usize(), Some(9));
    }

    #[test]
    fn new_ops_parse() {
        let q = parse_query(r#"{"op":"compare","n":128,"stencil":"5pt","shape":"square"}"#)
            .unwrap()
            .query;
        assert!(matches!(q, Query::Compare { .. }));
        let q = parse_query(
            r#"{"op":"simulate","arch":"mesh2d","n":64,"stencil":"5pt","shape":"strip","procs":4}"#,
        )
        .unwrap()
        .query;
        assert!(matches!(q, Query::Simulate { arch: SimArchKind::Mesh2d, procs: 4, .. }));
        let q = parse_query(r#"{"op":"solve","n":31,"solver":"cg","tol":1e-9}"#).unwrap().query;
        assert!(matches!(q, Query::Solve { solver: SolverKind::Cg, n: 31, check: None, .. }));
        let q = parse_query(r#"{"op":"solve","n":31,"solver":"jacobi","check_policy":"every:32"}"#)
            .unwrap()
            .query;
        assert!(matches!(q, Query::Solve { check: Some(CheckSpec::Every(32)), .. }));
        let q =
            parse_query(r#"{"op":"solve","n":31,"solver":"parallel","check_policy":"geometric"}"#)
                .unwrap()
                .query;
        assert!(matches!(q, Query::Solve { check: Some(c), .. } if c == CheckSpec::geometric()));
        let err =
            parse_query(r#"{"op":"solve","n":31,"solver":"jacobi","check_policy":"fibonacci"}"#)
                .unwrap_err();
        assert!(err.error.to_string().contains("check policy"), "{:?}", err.error);
        let q = parse_query(r#"{"op":"threads","n":64,"threads":[1,2]}"#).unwrap().query;
        assert!(matches!(q, Query::Threads { ref threads, .. } if threads == &[1, 2]));
        let q = parse_query(r#"{"op":"experiment","id":"e1","quick":true}"#).unwrap().query;
        assert!(matches!(q, Query::Experiment { quick: true, .. }));
    }

    #[test]
    fn response_rendering_is_parseable_json() {
        let value = EvalValue::Optimum {
            processors: 14,
            area: 4681.142857142857,
            cycle_time: 1.1e-3,
            speedup: 9.6,
            efficiency: 0.685,
            used_all: false,
        };
        let q = parse_query(
            r#"{"op":"optimize","arch":"sync-bus","n":256,"stencil":"5pt","shape":"square"}"#,
        )
        .unwrap();
        let line = render_response(&q.query, &Response::Single(Ok(value)), q.version, 1);
        let back = parse(&line).unwrap();
        assert_eq!(back.get("version"), None, "v1 requests get v1-shaped responses");
        assert_eq!(back.get("op").unwrap().as_str(), Some("optimize"));
        assert_eq!(back.get("ok").unwrap(), &Json::Bool(true));
        assert_eq!(back.get("processors").unwrap().as_usize(), Some(14));
        let area = back.get("area").unwrap().as_f64().unwrap();
        assert_eq!(area.to_bits(), 4681.142857142857f64.to_bits());
    }

    #[test]
    fn v2_responses_carry_version_and_error_kind() {
        let q = parse_query(
            r#"{"op":"optimize","version":2,"arch":"sync-bus","n":256,"stencil":"5pt","shape":"square"}"#,
        )
        .unwrap();
        let ok = render_response(
            &q.query,
            &Response::Single(Ok(EvalValue::Isoefficiency { n: 7 })),
            q.version,
            3,
        );
        assert!(ok.starts_with(r#"{"version":2,"#), "{ok}");
        let err = render_response(
            &q.query,
            &Response::Invalid(ParspeedError::invalid("grid side must be positive")),
            q.version,
            3,
        );
        let back = parse(&err).unwrap();
        assert_eq!(back.get("version").unwrap().as_usize(), Some(2));
        assert_eq!(back.get("line").unwrap().as_usize(), Some(3));
        assert_eq!(back.get("error_kind").unwrap().as_str(), Some("invalid_request"));
    }
}
