//! Golden values: the fixed-work Jacobi solves a routed benchmark misses on
//! (n = 31, 5-point, unreachable tolerance, 200–263 sweeps) must keep
//! reproducing the recorded `final_diff` and `max_error` bits. Kernel
//! rewrites that claim bit-identity are held to it end to end here, through
//! planning, the solver loop, the convergence reduction and the error norm.

use parspeed_engine::exec::evaluate;
use parspeed_engine::{EvalValue, Plan, Request, SolverKind};

/// `(pool index, iterations, final_diff bits, max_error bits)`. A key's
/// query is `solve n=31 jacobi tol=1e-300·(1+i) max_iters=200+(i mod 64)`.
const GOLDEN: [(usize, usize, u64, u64); 8] = [
    (1, 201, 0x3f5e_11dc_bac8_2c00, 0x3fd8_396e_389e_080a),
    (2, 202, 0x3f5d_eccb_7f82_ce00, 0x3fd8_1b81_6d1e_853c),
    (3, 203, 0x3f5d_c7e7_f5b5_d400, 0x3fd7_fdb9_8528_cf68),
    (5, 205, 0x3f5d_7ea9_157c_3000, 0x3fd7_c297_aa2e_4588),
    (38, 238, 0x3f59_26d5_1233_8c00, 0x3fd4_40ff_5257_deec),
    (63, 263, 0x3f56_4ae4_674a_9e00, 0x3fd1_f217_682c_c114),
    (101, 237, 0x3f59_45fc_b04c_d600, 0x3fd4_5a26_276a_1278),
    (510, 262, 0x3f56_6681_62af_5400, 0x3fd2_0862_4c94_0bb2),
];

#[test]
fn routed_jacobi_misses_reproduce_their_golden_bits() {
    let queries: Vec<_> = GOLDEN
        .iter()
        .map(|&(i, ..)| {
            Request::solve(31)
                .solver(SolverKind::Jacobi)
                .tol(1e-300 * (1 + i) as f64)
                .max_iters(200 + (i % 64))
                .query()
        })
        .collect();
    let plan = Plan::build(&queries);
    assert_eq!(plan.unique.len(), GOLDEN.len(), "every golden key is distinct");
    for (key, &(i, iters, diff_bits, error_bits)) in plan.unique.iter().zip(&GOLDEN) {
        match evaluate(key).expect("solve evaluates") {
            EvalValue::Solve { converged, iterations, final_diff, max_error, .. } => {
                assert!(!converged, "key {i}: the tolerance is unreachable");
                assert_eq!(iterations, iters, "key {i}: iterations");
                assert_eq!(final_diff.to_bits(), diff_bits, "key {i}: final_diff {final_diff:e}");
                assert_eq!(max_error.to_bits(), error_bits, "key {i}: max_error {max_error:e}");
            }
            other => panic!("key {i}: expected a solve, got {other:?}"),
        }
    }
}
