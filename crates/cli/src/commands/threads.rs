//! `parspeed threads` — measure the real partitioned executor on the
//! host CPU (the workspace's stand-in for the paper's machine-room runs).
//!
//! Routed through the engine as an *effect* query: never deduplicated or
//! cached (it is a wall-clock measurement), and executed after the
//! engine's parallel phase so timings see a quiet machine.

use crate::args::{Args, CliError};
use crate::commands::eval_single;
use crate::select;
use parspeed_bench::report::Table;
use parspeed_engine::{EvalValue, Request};

pub const KEYS: &[&str] = &["n", "stencil", "shape", "threads", "iters", "repeats"];
pub const SWITCHES: &[&str] = &[];

/// Usage shown by `parspeed help threads`.
pub const USAGE: &str = "parspeed threads [--n 512] [--threads 1,2,4,8] [--stencil 5pt]
    [--shape strip] [--iters 20] [--repeats 3]

Times real partitioned-Jacobi iterations on a dedicated rayon pool per
thread count and reports measured speedup — the host-CPU validation of the
model's shape claims (convexity, saturation, strips vs squares).";

/// Runs the subcommand.
pub fn run(args: &Args) -> Result<String, CliError> {
    let n = args.usize_or("n", 512)?;
    let stencil = select::stencil(args.str_or("stencil", "5pt"))?;
    let shape = select::shape(args.str_or("shape", "strip"))?;
    let threads = args.usize_list_or("threads", &[1, 2, 4, 8])?;
    if threads.is_empty() || threads.contains(&0) {
        return Err(CliError("--threads needs a list of positive counts".into()));
    }
    let iters = args.usize_or("iters", 20)?.max(1);
    let repeats = args.usize_or("repeats", 3)?.max(1);

    let query = Request::threads(n)
        .stencil(select::stencil_spec(args.str_or("stencil", "5pt"))?)
        .shape(select::shape_key(args.str_or("shape", "strip"))?)
        .threads(threads)
        .iters(iters)
        .repeats(repeats)
        .query();
    let EvalValue::Threads { points } = eval_single(query)? else {
        unreachable!("threads queries produce measurement values")
    };

    let mut t = Table::new(
        format!("Measured partitioned Jacobi · n={n} · {} · {}", stencil.name(), shape.name()),
        &["threads", "s/iter", "speedup", "efficiency"],
    );
    for p in &points {
        t.row(vec![
            p.threads.to_string(),
            format!("{:.3e}", p.secs_per_iter),
            format!("{:.2}", p.speedup),
            format!("{:.1}%", 100.0 * p.speedup / p.threads as f64),
        ]);
    }
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_measurement_runs() {
        let toks: Vec<String> = ["--n", "64", "--threads", "1,2", "--iters", "2", "--repeats", "1"]
            .iter()
            .map(|t| t.to_string())
            .collect();
        let args = Args::parse(&toks, KEYS, SWITCHES).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("threads"), "{out}");
        assert!(out.lines().count() >= 5, "{out}");
    }

    #[test]
    fn rejects_zero_thread_counts() {
        let toks: Vec<String> = ["--threads", "0,2"].iter().map(|t| t.to_string()).collect();
        let args = Args::parse(&toks, KEYS, SWITCHES).unwrap();
        assert!(run(&args).is_err());
    }
}
