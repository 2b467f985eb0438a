//! Driving the real `parspeed` binaries: the child-process lifecycle, the
//! closed-loop TCP load generator, and reply verification.

use crate::gen::{self, Req, Stream, Workload};
use crate::stats;
use parspeed_engine::jsonl::{self, Json};
use parspeed_engine::{Engine, Query};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A reply that takes longer than this is treated as lost, so a wedged
/// server fails the run instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A `parspeed serve` or `parspeed route` child process.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `bin args…` and waits for its `listening on ADDR` /
    /// `routing on ADDR` banner.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner.split_whitespace().nth(2).and_then(|a| a.parse().ok());
        let mut proc = ServerProc { child, stdin, stdout, addr: ([0, 0, 0, 0], 0).into() };
        read?;
        match addr {
            Some(addr) => {
                proc.addr = addr;
                Ok(proc)
            }
            None => Err(io::Error::other(format!("unexpected server banner {banner:?}"))),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes stdin so the server drains and exits, waits for it, and
    /// checks that it exited cleanly.
    pub fn shutdown(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("server exited with {status}")))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection speaking the JSONL wire.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// Sends one serving-only op (`stats`, `metrics`, `topology`) and
    /// returns its parsed reply. Only valid with nothing in flight.
    pub fn op(&mut self, op: &str) -> io::Result<Json> {
        self.send(&format!("{{\"op\":\"{op}\"}}\n"))?;
        let reply = self.recv()?;
        jsonl::parse(reply).map_err(|e| io::Error::other(format!("`{op}` reply: {e}")))
    }
}

/// How replies are judged correct.
#[derive(Clone)]
pub enum Expect {
    /// Byte-equal to the serial engine's rendering of the universe entry.
    Exact(Arc<Vec<String>>),
    /// A converged solve within [`gen::SOLVE_MAX_ERROR`]; sampled replies
    /// are kept for a byte-for-byte check afterwards.
    Solve,
}

impl Expect {
    pub fn for_workload(workload: Workload) -> Expect {
        match workload {
            Workload::SolveCold => Expect::Solve,
            w => Expect::Exact(Arc::new(references(&gen::universe(w)))),
        }
    }
}

/// The serial reference: `Engine::run_batch` on one thread, rendered with
/// `jsonl::render_response` exactly as a wire-v2 reply.
pub fn references(queries: &[Query]) -> Vec<String> {
    let engine = Engine::builder().threads(1).build();
    let out = engine.run_batch(queries);
    queries
        .iter()
        .zip(&out.responses)
        .enumerate()
        .map(|(i, (q, r))| jsonl::render_response(q, r, 2, i + 1))
        .collect()
}

/// What one connection (or several, merged) saw.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests sent.
    pub attempted: u64,
    /// Replies that arrived and were correct.
    pub correct: u64,
    /// Send→reply time of every reply that arrived, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Sum of the `iterations` of solve replies.
    pub iterations: u64,
    /// Sampled solve queries and their replies, for the byte check.
    pub samples: Vec<(Query, String)>,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
    /// Per-request spans (sent, replied), when asked.
    pub spans: Vec<(Instant, Instant)>,
    /// When the last reply arrived.
    pub end: Option<Instant>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.attempted - self.correct
    }

    fn fail(&mut self, msg: String) {
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// Judges one reply; `false` when it counts as failed.
    pub fn check(&mut self, expect: &Expect, req: &Req, reply: &str) -> bool {
        let verdict = match expect {
            Expect::Exact(refs) => {
                let idx = req.idx.expect("universe workloads index their references");
                if reply == refs[idx] {
                    Ok(())
                } else {
                    Err(format!("reply differs from the serial engine: {reply} vs {}", refs[idx]))
                }
            }
            Expect::Solve => check_solve(reply).map(|iterations| {
                self.iterations += iterations;
                if req.sample {
                    self.samples.push((req.query.clone(), reply.to_string()));
                }
            }),
        };
        match verdict {
            Ok(()) => {
                self.correct += 1;
                true
            }
            Err(msg) => {
                self.fail(format!("{}: {msg}", req.line.trim_end()));
                false
            }
        }
    }

    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.latencies_ms.extend(other.latencies_ms);
        self.iterations += other.iterations;
        self.samples.extend(other.samples);
        for e in other.errors {
            self.fail(e);
        }
        self.spans.extend(other.spans);
        self.end = self.end.max(other.end);
    }
}

/// A `solve-cold` reply must be ok, converged, and accurate; returns its
/// iteration count.
fn check_solve(reply: &str) -> Result<u64, String> {
    let v = jsonl::parse(reply)?;
    if v.get("ok") != Some(&Json::Bool(true)) {
        return Err("not ok".into());
    }
    if v.get("converged") != Some(&Json::Bool(true)) {
        return Err("did not converge".into());
    }
    match v.get("max_error").and_then(Json::as_f64) {
        Some(e) if e < gen::SOLVE_MAX_ERROR => {}
        other => return Err(format!("max_error {other:?} not under {}", gen::SOLVE_MAX_ERROR)),
    }
    v.get("iterations").and_then(Json::as_usize).map(|i| i as u64).ok_or("no iterations".into())
}

/// Compares sampled solve replies byte for byte with the serial engine;
/// returns how many differ.
pub fn check_samples(samples: &[(Query, String)], out: &mut Outcome) -> u64 {
    let queries: Vec<Query> = samples.iter().map(|(q, _)| q.clone()).collect();
    let refs = references(&queries);
    let mut bad = 0;
    for ((q, got), want) in samples.iter().zip(&refs) {
        if got != want {
            bad += 1;
            out.fail(format!("sampled {} differs: {got} vs {want}", jsonl::op_name(q)));
        }
    }
    bad
}

/// Closed-loop driver: keeps `credit` requests in flight on `conn`,
/// sending the next one from `next` as each reply arrives, until `next`
/// runs dry and every reply is in. A lost connection counts every
/// request still in flight as failed.
pub fn drive(
    conn: &mut Conn,
    next: &mut dyn FnMut() -> Option<Req>,
    credit: usize,
    expect: &Expect,
    spans: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let mut inflight = std::collections::VecDeque::with_capacity(credit);
    let mut more = true;
    loop {
        while more && inflight.len() < credit {
            match next() {
                Some(req) => {
                    out.attempted += 1;
                    let sent = Instant::now();
                    if let Err(e) = conn.send(&req.line) {
                        out.fail(format!("send: {e}"));
                        return out;
                    }
                    inflight.push_back((sent, req));
                }
                None => more = false,
            }
        }
        let Some((sent, req)) = inflight.pop_front() else { return out };
        let reply = match conn.recv() {
            Ok(reply) => reply,
            Err(e) => {
                out.fail(format!("recv: {e}"));
                return out;
            }
        };
        let at = Instant::now();
        out.latencies_ms.push(at.duration_since(sent).as_secs_f64() * 1e3);
        if spans {
            out.spans.push((sent, at));
        }
        out.end = Some(at);
        let reply = reply.to_string();
        out.check(expect, &req, &reply);
    }
}

/// Sends `reqs` over `conn` with `credit` in flight.
pub fn drive_list(conn: &mut Conn, reqs: Vec<Req>, credit: usize, expect: &Expect) -> Outcome {
    let mut it = reqs.into_iter();
    drive(conn, &mut || it.next(), credit, expect, false)
}

/// Drives one connection per element of `conns` concurrently (the first
/// on the calling thread), each with its own seeded stream, until
/// `until`. Returns the merged outcome and the thread count seen while
/// every driver was running.
pub fn drive_streams(
    conns: &mut [Conn],
    workload: Workload,
    seed: u64,
    until: Instant,
    expect: &Expect,
    spans: bool,
) -> (Outcome, u64) {
    let count = conns.len();
    let credit = workload.credit();
    let run = |i: usize, conn: &mut Conn| {
        let mut stream = Stream::new(workload, seed, i, count);
        let mut next = || (Instant::now() < until).then(|| stream.next_req());
        drive(conn, &mut next, credit, expect, spans)
    };
    std::thread::scope(|s| {
        let (first, rest) = conns.split_first_mut().expect("at least one connection");
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| s.spawn(move || run(i + 1, conn)))
            .collect();
        let threads = proc_status("self", "Threads").unwrap_or(u64::MAX);
        let mut out = run(0, first);
        for h in handles {
            out.merge(h.join().expect("connection driver panicked"));
        }
        (out, threads)
    })
}

/// Connections (and so generator threads) the load uses: two, or fewer
/// on a smaller host.
pub fn connection_count() -> usize {
    host_cpus().min(2)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A numeric field of `/proc/<pid>/status` (`VmHWM` in kB, `Threads`).
pub fn proc_status(pid: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// User plus system CPU seconds of a process, all threads included.
pub fn proc_cpu_seconds(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in clock ticks of 1/100 s (the
    // fixed USER_HZ of the Linux proc ABI).
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks as f64 / 100.0)
}

/// Steal seconds summed over every CPU since boot (0 when unreadable).
fn host_steal_seconds() -> f64 {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // `cpu user nice system idle iowait irq softirq steal …`, in 1/100 s.
    let steal = text.lines().next().and_then(|l| l.split_whitespace().nth(8)?.parse::<u64>().ok());
    steal.unwrap_or(0) as f64 / 100.0
}

/// One round: a fresh server process, set up, then measured.
pub struct Round {
    /// Spawn → listening → warm-up done.
    pub setup_s: f64,
    /// Correct replies in the measured phase.
    pub correct: u64,
    /// Wall seconds of the measured phase, up to the last reply.
    pub wall_s: f64,
    /// The round's own p99, when it has enough samples for one.
    pub p99_ms: Option<f64>,
    /// The server's VmHWM at the end of the round.
    pub rss_mib: f64,
    /// CPU seconds the server and the generator used while measured.
    pub server_cpu_s: f64,
    pub loadgen_cpu_s: f64,
    /// Generator threads seen while every connection was driven.
    pub threads: u64,
    pub connections: usize,
    /// Seconds the hypervisor ran something else on this machine's CPUs
    /// while the round was measured (`steal` in `/proc/stat`); when it is
    /// a large share of `wall_s` times the CPU count, the round's times
    /// say more about the host than about the program.
    pub steal_s: f64,
}

/// Every round of one run, plus the merged outcome: every request,
/// warm-ups included, and the measured latencies of all rounds, sorted.
///
/// Rates are totals over all rounds, not medians of rounds: the host's
/// speed swings from one fraction of a second to the next, and only a
/// long average smooths that out. Rounds on fresh processes average the
/// steady state each server process settles into.
pub struct EndToEnd {
    pub rounds: Vec<Round>,
    pub outcome: Outcome,
    /// Rounds measured again because the host stole their CPU time.
    pub remeasured: usize,
}

impl EndToEnd {
    /// Median over rounds of one figure.
    pub fn median(&self, figure: impl Fn(&Round) -> f64) -> f64 {
        stats::median(&self.rounds.iter().map(figure).collect::<Vec<_>>())
    }

    fn total(&self, figure: impl Fn(&Round) -> f64) -> f64 {
        self.rounds.iter().map(figure).sum()
    }

    /// Correct measured replies per second.
    pub fn throughput_rps(&self) -> f64 {
        self.total(|r| r.correct as f64) / self.total(|r| r.wall_s)
    }

    /// Server CPU µs per correct measured reply.
    pub fn server_cpu_us_per_req(&self) -> f64 {
        self.total(|r| r.server_cpu_s) * 1e6 / self.total(|r| r.correct as f64).max(1.0)
    }

    /// The generator's share of the CPU the measured phases used.
    pub fn loadgen_cpu_frac(&self) -> f64 {
        let gen = self.total(|r| r.loadgen_cpu_s);
        gen / (gen + self.total(|r| r.server_cpu_s)).max(f64::MIN_POSITIVE)
    }

    /// Whether every round kept the generator within its thread and
    /// connection limits.
    pub fn within_host(&self) -> bool {
        self.rounds.iter().all(|r| r.threads as usize <= r.connections && r.connections <= 2)
    }
}

/// Set-up: spawn the server, connect, and warm its cache.
fn set_up(
    bin: &Path,
    workload: Workload,
    expect: &Expect,
) -> Result<(ServerProc, Vec<Conn>, Outcome), String> {
    let server = ServerProc::spawn(bin, &workload.server_args())
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut conns = (0..connection_count())
        .map(|_| Conn::connect(server.addr))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    let warm = drive_list(&mut conns[0], gen::warmup(workload), workload.credit(), expect);
    Ok((server, conns, warm))
}

/// One round on a fresh server: set up, drive every connection for
/// `seconds`, shut the server down, and check the sampled replies.
fn round(
    bin: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    expect: &Expect,
    spans: bool,
) -> Result<(Round, Outcome), String> {
    let t0 = Instant::now();
    let (server, mut conns, warm) = set_up(bin, workload, expect)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let pid = server.pid().to_string();
    let cpu = || Some((proc_cpu_seconds("self")?, proc_cpu_seconds(&pid)?));
    let (self0, child0) = cpu().ok_or("cannot read CPU times from /proc")?;
    let steal0 = host_steal_seconds();
    let epoch = Instant::now();
    let until = epoch + Duration::from_secs_f64(seconds);
    let (mut outcome, threads) = drive_streams(&mut conns, workload, seed, until, expect, spans);
    let (self1, child1) = cpu().ok_or("cannot read CPU times from /proc")?;
    let steal_s = host_steal_seconds() - steal0;
    let rss_kib = proc_status(&pid, "VmHWM").ok_or("cannot read the server's VmHWM")?;
    let connections = conns.len();
    drop(conns);
    server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
    // A sampled reply that differs from the serial engine was not correct.
    let samples = std::mem::take(&mut outcome.samples);
    outcome.correct -= check_samples(&samples, &mut outcome);
    let round = Round {
        setup_s,
        correct: outcome.correct,
        wall_s: outcome.end.map_or(seconds, |end| end.duration_since(epoch).as_secs_f64()),
        p99_ms: {
            let mut lat = outcome.latencies_ms.clone();
            lat.sort_by(f64::total_cmp);
            stats::percentile(&lat, 99.0).ok()
        },
        rss_mib: rss_kib as f64 / 1024.0,
        server_cpu_s: child1 - child0,
        loadgen_cpu_s: self1 - self0,
        threads,
        connections,
        steal_s,
    };
    let mut warm = warm;
    warm.latencies_ms.clear();
    outcome.merge(warm);
    Ok((round, outcome))
}

/// A round during which the hypervisor stole more than this share of the
/// machine's CPU time measured the host, not the program: it is measured
/// again, on the same seed, at most [`MAX_REMEASURES`] times per run.
/// Its requests still count towards `attempted` and `failed`.
const MAX_STEAL_FRAC: f64 = 0.1;
const MAX_REMEASURES: usize = 3;

/// One end-to-end run: `rounds` rounds of `seconds / rounds` each, every
/// round on a fresh server process with its own seeded streams.
pub fn end_to_end(
    bin: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    rounds: usize,
    expect: &Expect,
    spans: bool,
) -> Result<EndToEnd, String> {
    let mut run = EndToEnd { rounds: Vec::new(), outcome: Outcome::default(), remeasured: 0 };
    while run.rounds.len() < rounds {
        let seed = gen::round_seed(seed, run.rounds.len());
        let (r, mut outcome) = round(bin, workload, seed, seconds / rounds as f64, expect, spans)?;
        let stolen = r.steal_s / (r.wall_s * host_cpus() as f64);
        if stolen > MAX_STEAL_FRAC && run.remeasured < MAX_REMEASURES {
            eprintln!(
                "  round {}: host steal {:.0}%, measuring it again",
                run.rounds.len(),
                stolen * 1e2
            );
            run.remeasured += 1;
            outcome.latencies_ms.clear();
            outcome.spans.clear();
            run.outcome.merge(outcome);
            continue;
        }
        run.outcome.merge(outcome);
        run.rounds.push(r);
    }
    run.outcome.latencies_ms.sort_by(f64::total_cmp);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::path::PathBuf;

    /// A fake server that answers its first line correctly, refuses the
    /// second as overloaded, and hangs up on the third.
    #[test]
    fn refused_invalid_and_missing_replies_count_as_failed() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("address");
        let good = "{\"version\":2,\"op\":\"table1\",\"ok\":true}";
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut line = String::new();
            for reply in [
                good,
                "{\"version\":2,\"op\":\"table1\",\"ok\":false,\"error_kind\":\"overloaded\"}",
            ] {
                line.clear();
                reader.read_line(&mut line).expect("read");
                writeln!(writer, "{reply}").expect("write");
            }
            line.clear();
            reader.read_line(&mut line).expect("read");
        });
        let expect = Expect::Exact(Arc::new(vec![good.to_string()]));
        let query = gen::universe(Workload::MixHot)[0].clone();
        let req = Req { line: "{}\n".into(), query, idx: Some(0), sample: false };
        let mut reqs = vec![req.clone(), req.clone(), req].into_iter();
        let mut conn = Conn::connect(addr).expect("connect");
        let out = drive(&mut conn, &mut || reqs.next(), 3, &expect, false);
        server.join().expect("fake server");
        assert_eq!((out.attempted, out.correct, out.failed()), (3, 1, 2));
    }

    #[test]
    fn solve_replies_must_converge_accurately() {
        let ok = r#"{"version":2,"op":"solve","ok":true,"converged":true,"iterations":7,"final_diff":1e-7,"max_error":0.001}"#;
        assert_eq!(check_solve(ok), Ok(7));
        assert!(check_solve(&ok.replace("\"converged\":true", "\"converged\":false")).is_err());
        assert!(check_solve(&ok.replace("0.001", "0.5")).is_err());
        assert!(check_solve(r#"{"version":2,"op":"solve","ok":false,"error_kind":"overloaded"}"#)
            .is_err());
        assert!(check_solve("not json").is_err());
    }

    /// Builds `parspeed` into this test binary's target directory.
    fn parspeed() -> PathBuf {
        let exe = std::env::current_exe().expect("test binary path");
        let target = exe.ancestors().nth(3).expect("target directory").to_path_buf();
        let repo = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root");
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let status = Command::new(cargo)
            .args(["build", "--release", "--offline", "--quiet", "--bin", "parspeed"])
            .arg("--manifest-path")
            .arg(repo.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building parspeed failed");
        target.join("release").join("parspeed")
    }

    #[test]
    fn each_workload_smoke_run_has_no_failures() {
        let bin = parspeed();
        for workload in Workload::ALL {
            let expect = Expect::for_workload(workload);
            let run = end_to_end(&bin, workload, 1, 1.0, 1, &expect, false).expect("smoke run");
            let out = &run.outcome;
            assert!(out.attempted > 0 && run.rounds[0].correct > 0, "{}", workload.name());
            assert_eq!(out.failed(), 0, "{}: {:?}", workload.name(), out.errors);
        }
    }
}
