//! Convergence-check scheduling on a real parallel solve (§4, ref [13]).
//!
//! ```sh
//! cargo run --release --example adaptive_convergence
//! ```
//!
//! Checking convergence costs a local pass plus a global combine, so
//! *when* to check is a real scheduling problem. This example runs the
//! partitioned, thread-parallel Jacobi solver under four policies and shows what the
//! paper reports from [13]: naive per-iteration checking wastes a large
//! fraction of the run, and the rate-estimating scheduler gets the cost
//! down to a handful of checks with bounded overshoot.

use parspeed::exec::{AdaptiveChecker, CheckPolicy, PartitionedJacobi};
use parspeed::grid::StripDecomposition;
use parspeed::prelude::*;
use parspeed::solver::Manufactured;

fn main() {
    let n = 96usize;
    let tol = 1e-9;
    let problem = PoissonProblem::manufactured(n, Manufactured::SinSin);
    let stencil = Stencil::five_point();
    let decomp = StripDecomposition::new(n, 8);

    println!("{n}×{n} Poisson, 8 strip partitions, tol {tol:.0e}\n");
    println!("{:>22}  {:>10}  {:>8}  {:>10}", "policy", "iterations", "checks", "converged");

    let mut runs = Vec::new();
    for (name, policy) in [
        ("check every iteration", CheckPolicy::Every(1)),
        ("check every 64", CheckPolicy::Every(64)),
        ("geometric schedule", CheckPolicy::geometric()),
    ] {
        let mut exec = PartitionedJacobi::new(&problem, &stencil, &decomp);
        let run = exec.solve(tol, 200_000, policy);
        println!("{name:>22}  {:>10}  {:>8}  {:>10}", run.iterations, run.checks, run.converged);
        runs.push(run);
    }

    let mut adaptive = AdaptiveChecker::default();
    let mut exec = PartitionedJacobi::new(&problem, &stencil, &decomp);
    let run = exec.solve_scheduled(tol, 200_000, &mut adaptive);
    println!(
        "{:>22}  {:>10}  {:>8}  {:>10}",
        "adaptive (rate est.)", run.iterations, run.checks, run.converged
    );

    let spectral = (std::f64::consts::PI / (n as f64 + 1.0)).cos();
    if let Some(rho) = adaptive.estimated_rate() {
        println!(
            "\nEstimated decay rate ρ̂ = {rho:.6}; Jacobi's spectral radius cos(π/(n+1)) = {spectral:.6}."
        );
    }
    let eager = &runs[0];
    println!(
        "\nThe eager policy paid {} checks for {} iterations; the adaptive\n\
         scheduler paid {} checks and overshot by {} iterations — the [13]\n\
         result the paper leans on when it \"safely ignores\" convergence-\n\
         checking costs on hypercubes.",
        eager.checks,
        eager.iterations,
        run.checks,
        run.iterations.saturating_sub(eager.iterations),
    );
}
