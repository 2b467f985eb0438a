//! Property tests: the lane-split select fold of `parspeed_grid::maxnorm`
//! is bit-identical to the sequential `f64::max` fold it replaces, on rows
//! of every length up to 40 (so every lane remainder) drawn from NaN, ±∞,
//! ±0, subnormals and arbitrary bit patterns.

use parspeed_grid::maxnorm::{max_abs, max_abs_diff, max_step, MaxLanes, LANES};
use proptest::prelude::*;

/// Longest row the properties draw; every prefix of a row is checked too.
const MAX_LEN: usize = 40;

/// An `f64` that is special about a fifth of the time and an arbitrary bit
/// pattern (normal, subnormal, infinite or NaN) otherwise.
fn float() -> impl Strategy<Value = f64> {
    (0usize..20, 0u64..u64::MAX).prop_map(|(pick, bits)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => f64::from_bits(bits & 0x000f_ffff_ffff_ffff), // +subnormal
        6 => f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1 << 63)), // −subnormal
        7 => f64::MIN_POSITIVE,
        _ => f64::from_bits(bits),
    })
}

fn row() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(float(), MAX_LEN + 1)
}

/// The historical fold: a running `f64::max` over absolute values.
fn reference(d: impl Iterator<Item = f64>) -> f64 {
    d.fold(0.0f64, |m, d| m.max(d.abs()))
}

proptest! {
    #[test]
    fn max_abs_matches_the_f64_max_fold(a in row()) {
        for len in 0..=a.len() {
            let a = &a[..len];
            prop_assert_eq!(max_abs(a).to_bits(), reference(a.iter().copied()).to_bits(), "len {}", len);
        }
    }

    #[test]
    fn max_abs_diff_matches_the_f64_max_fold(a in row(), b in row()) {
        for len in 0..=MAX_LEN {
            let (a, b) = (&a[..len], &b[..len]);
            let want = reference(a.iter().zip(b).map(|(x, y)| x - y));
            prop_assert_eq!(max_abs_diff(a, b).to_bits(), want.to_bits(), "len {}", len);
        }
    }

    #[test]
    fn lanes_and_steps_match_the_f64_max_fold(a in row()) {
        // The fused kernels' form: chunks into `MaxLanes`, the rest through
        // `max_step`, in any split.
        for split in 0..=MAX_LEN {
            let (lanes_part, step_part) = a[..MAX_LEN].split_at(split - split % LANES);
            let mut lanes = MaxLanes::default();
            for c in lanes_part.chunks_exact(LANES) {
                lanes.push(&std::array::from_fn(|l| c[l].abs()));
            }
            let steps = step_part.iter().fold(0.0, |m, x| max_step(m, x.abs()));
            let want = reference(a[..MAX_LEN].iter().copied());
            prop_assert_eq!(lanes.finish(steps).to_bits(), want.to_bits(), "split {}", split);
        }
    }
}

#[test]
fn all_nan_and_empty_rows_fold_to_positive_zero() {
    for len in [0, 1, LANES, 2 * LANES + 3] {
        let nan = vec![f64::NAN; len];
        assert_eq!(max_abs(&nan).to_bits(), 0.0f64.to_bits(), "len {len}");
        assert_eq!(max_abs_diff(&nan, &nan).to_bits(), 0.0f64.to_bits(), "len {len}");
    }
}
