//! `perfbench` — the repository benchmark: drives the real `parspeed
//! serve` / `parspeed route` binaries over TCP with a seeded closed-loop
//! load, verifies every reply, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload mix-hot|solve-cold|route-spread --seed N
//!           --seconds S --trace 0|1
//! perfbench --workload W --seed N --emit COUNT   # the JSONL stream only
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! per-tier ledger and reports the per-layer metrics (see README.md).

mod drive;
mod gen;
mod ledger;
mod stats;

use gen::{Stream, Workload};
use parspeed_engine::jsonl::Json;
use std::path::PathBuf;
use std::time::Duration;

/// Rounds per run, each on a fresh server process.
const ROUNDS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    emit: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut emit) = (None, 0, 10, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?)
            }
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?.max(1),
            "--trace" => trace = number(value()?)? != 0,
            "--emit" => emit = Some(number(value()?)? as usize),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, emit })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The result of one benchmark run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let body = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ];
                (m.name.clone(), Json::Obj(body))
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Host facts recorded with every run.
pub fn host_facts() -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    // parspeed-netio selects epoll on Linux and poll(2) elsewhere.
    let poll = if cfg!(target_os = "linux") { "epoll" } else { "poll" };
    format!("nproc={} poll_backend={poll} rustc=\"{rustc}\"", drive::host_cpus())
}

/// The `parspeed` binary, built next to this one.
fn parspeed_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let bin = exe.with_file_name("parspeed");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing; build it first (see perfbench/run.sh)", bin.display()))
    }
}

fn end_to_end(args: &Args) -> Result<Report, String> {
    let bin = parspeed_bin()?;
    let expect = drive::Expect::for_workload(args.workload);
    let seconds = Duration::from_secs(args.seconds).as_secs_f64();
    let run = drive::end_to_end(&bin, args.workload, args.seed, seconds, ROUNDS, &expect, false)?;
    if !run.within_host() {
        eprintln!(
            "perfbench: the generator exceeded {} threads or connections",
            drive::connection_count()
        );
    }
    for (k, r) in run.rounds.iter().enumerate() {
        eprintln!(
            "  round {k}: setup {:.3} s, p99 {:?} ms, {:.1} req/s, server CPU {:.1} us/req, VmHWM {:.2} MiB, host steal {:.0}%",
            r.setup_s,
            r.p99_ms,
            r.correct as f64 / r.wall_s,
            r.server_cpu_s * 1e6 / r.correct.max(1) as f64,
            r.rss_mib,
            100.0 * r.steal_s / (r.wall_s * drive::host_cpus() as f64)
        );
    }
    if run.remeasured > 0 {
        eprintln!("  {} round(s) measured again after host steal", run.remeasured);
    }
    let out = &run.outcome;
    for e in &out.errors {
        eprintln!("perfbench: failed: {e}");
    }
    let ok_frac = out.correct as f64 / out.attempted.max(1) as f64;
    // The median of the rounds' own p99s shrugs off a round the host
    // stalled; rounds too short to hold a p99 of their own (solve-cold's)
    // pool their samples instead.
    let p99 = match run.rounds.iter().map(|r| r.p99_ms).collect::<Option<Vec<f64>>>() {
        Some(p99s) => stats::median(&p99s),
        None => stats::percentile(&out.latencies_ms, 99.0)?,
    };
    Ok(Report {
        correct: out.failed() == 0 && run.within_host(),
        attempted: out.attempted,
        failed: out.failed(),
        metrics: vec![
            metric("throughput_rps", run.throughput_rps(), "req/s"),
            metric("latency_p50_ms", stats::percentile(&out.latencies_ms, 50.0)?, "ms"),
            metric("latency_p99_ms", p99, "ms"),
            metric("ok_frac", ok_frac, "fraction"),
            metric("setup_s", run.median(|r| r.setup_s), "s"),
            metric("server_rss_mib", run.median(|r| r.rss_mib), "MiB"),
            metric("server_cpu_us_per_req", run.server_cpu_us_per_req(), "us"),
        ],
    })
}

/// Refuses a metric set that differs from what `BENCHMARK.json` (in the
/// working directory, the repository root) declares for this mode.
fn check_declared(report: &Report, trace: bool) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let spec = parspeed_engine::jsonl::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let section = if trace { "per_layer" } else { "end_to_end" };
    let mut declared: Vec<(String, String)> = spec
        .get(section)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no `{section}` list"))?
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect();
    let mut reported: Vec<(String, String)> =
        report.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
    declared.sort();
    reported.sort();
    if declared == reported {
        Ok(())
    } else {
        Err(format!(
            "reported metrics {reported:?} differ from BENCHMARK.json `{section}` {declared:?}"
        ))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(count) = args.emit {
        // The lines the first round sends, alternating over connections.
        let (conns, seed) = (drive::connection_count(), gen::round_seed(args.seed, 0));
        let mut streams: Vec<Stream> =
            (0..conns).map(|c| Stream::new(args.workload, seed, c, conns)).collect();
        for i in 0..count {
            print!("{}", streams[i % conns].next_req().line);
        }
        return;
    }
    eprintln!("perfbench: {} seed={} {}", args.workload.name(), args.seed, host_facts());
    let report = if args.trace {
        ledger::run(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(&args)
    };
    match report.and_then(|r| check_declared(&r, args.trace).map(|()| r)) {
        Ok(report) => {
            for m in &report.metrics {
                eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
            }
            eprintln!("  attempted {} failed {}", report.attempted, report.failed);
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
