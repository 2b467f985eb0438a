//! The max-norm reduction every convergence check and error norm shares.
//!
//! All of them fold absolute values, `m = max(m, |x|)`, starting from
//! `0.0`. [`max_step`] writes that step as a select,
//! `if d > m { d } else { m }`, instead of `f64::max`. For these inputs the
//! two are bit-identical:
//!
//! - every `d` is an `abs()`, so it is never `−0.0`, and the accumulator
//!   starts at `+0.0`: equal operands are the same bits, so which one a tie
//!   returns does not matter;
//! - a NaN `d` compares false, so the select keeps `m`; `f64::max` also
//!   returns the non-NaN operand. The accumulator therefore never becomes
//!   NaN in either form.
//!
//! The select matters for speed. `f64::max` must handle NaN on either
//! side, which costs a compare and a blend per element and keeps LLVM from
//! turning a lane-split fold into packed `max` instructions. The select
//! maps directly onto them (`maxpd` returns its second operand unless the
//! first is greater), so [`MaxLanes`] reduces [`LANES`] independent partial
//! maxima in vector registers. Max over a set does not depend on order, so
//! splitting into lanes cannot change the result either.

/// Independent partial maxima a lane-split fold keeps.
pub const LANES: usize = 4;

/// One step of the max-norm fold, `max(m, d)` as a select. Exact against
/// `m.max(d)` whenever `m` is a previous result of this fold (never NaN or
/// `−0.0`) and `d` is an `abs()`: see the module documentation.
#[inline(always)]
pub fn max_step(m: f64, d: f64) -> f64 {
    if d > m {
        d
    } else {
        m
    }
}

/// [`LANES`] partial maxima of a max-norm fold. Feed it chunks of absolute
/// values with [`push`](MaxLanes::push); [`finish`](MaxLanes::finish) folds
/// the lanes together.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxLanes([f64; LANES]);

impl MaxLanes {
    /// Folds one chunk of absolute values in, lane by lane.
    #[inline(always)]
    pub fn push(&mut self, d: &[f64; LANES]) {
        for (m, &d) in self.0.iter_mut().zip(d) {
            *m = max_step(*m, d);
        }
    }

    /// Folds the lanes into `m`, the scalar part of the same fold.
    #[inline(always)]
    pub fn finish(self, m: f64) -> f64 {
        self.0.into_iter().fold(m, max_step)
    }
}

/// `max |a_i|`, or `0.0` for an empty slice.
#[inline]
pub fn max_abs(a: &[f64]) -> f64 {
    let mut lanes = MaxLanes::default();
    let chunks = a.chunks_exact(LANES);
    let tail = chunks.remainder().iter().fold(0.0, |m, x| max_step(m, x.abs()));
    for c in chunks {
        let c: &[f64; LANES] = c.try_into().expect("exact chunk");
        lanes.push(&c.map(f64::abs));
    }
    lanes.finish(tail)
}

/// `max |a_i − b_i|` over two slices of the same length, or `0.0` when
/// they are empty.
#[inline]
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut lanes = MaxLanes::default();
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail =
        ca.remainder().iter().zip(cb.remainder()).fold(0.0, |m, (x, y)| max_step(m, (x - y).abs()));
    for (x, y) in ca.zip(cb) {
        let (x, y): (&[f64; LANES], &[f64; LANES]) =
            (x.try_into().expect("exact chunk"), y.try_into().expect("exact chunk"));
        lanes.push(&std::array::from_fn(|l| (x[l] - y[l]).abs()));
    }
    lanes.finish(tail)
}
