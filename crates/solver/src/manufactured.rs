//! Manufactured solutions for verification.

use parspeed_grid::Grid2D;
use std::f64::consts::PI;

/// Analytic solutions of `-∇²u = f` on the unit square used to verify the
/// solvers: the forcing `f` is manufactured from a chosen `u`, so the
/// discrete answer can be compared against truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Manufactured {
    /// `u = sin(πx)·sin(πy)` — zero boundary, `f = 2π²·sin(πx)·sin(πy)`.
    SinSin,
    /// `u = x(1−x)·y(1−y)` — zero boundary,
    /// `f = 2·[x(1−x) + y(1−y)]`.
    Bubble,
    /// `u = x² − y²` — harmonic (`f = 0`) with non-trivial boundary.
    Saddle,
}

impl Manufactured {
    /// The analytic solution at `(x, y)`.
    pub fn u(&self, x: f64, y: f64) -> f64 {
        match self {
            Manufactured::SinSin => (PI * x).sin() * (PI * y).sin(),
            Manufactured::Bubble => x * (1.0 - x) * y * (1.0 - y),
            Manufactured::Saddle => x * x - y * y,
        }
    }

    /// The forcing `f = -∇²u` at `(x, y)`.
    pub fn f(&self, x: f64, y: f64) -> f64 {
        match self {
            Manufactured::SinSin => 2.0 * PI * PI * (PI * x).sin() * (PI * y).sin(),
            Manufactured::Bubble => 2.0 * (x * (1.0 - x) + y * (1.0 - y)),
            Manufactured::Saddle => 0.0,
        }
    }

    /// All catalogued solutions.
    pub fn all() -> [Manufactured; 3] {
        [Manufactured::SinSin, Manufactured::Bubble, Manufactured::Saddle]
    }

    /// [`u`](Self::u) sampled on the interior points
    /// `((c+1)·h, (r+1)·h)` of an `n×n` grid (no halo).
    pub fn sample_u(&self, n: usize, h: f64) -> Grid2D {
        match self {
            Manufactured::SinSin => {
                let s = sin_line(n, h);
                Grid2D::from_fn(n, n, 0, |r, c| s[c] * s[r])
            }
            _ => Grid2D::from_fn(n, n, 0, |r, c| self.u(line(c, h), line(r, h))),
        }
    }

    /// [`f`](Self::f) sampled like [`sample_u`](Self::sample_u).
    pub fn sample_f(&self, n: usize, h: f64) -> Grid2D {
        match self {
            Manufactured::SinSin => {
                let s = sin_line(n, h);
                Grid2D::from_fn(n, n, 0, |r, c| 2.0 * PI * PI * s[c] * s[r])
            }
            _ => Grid2D::from_fn(n, n, 0, |r, c| self.f(line(c, h), line(r, h))),
        }
    }
}

/// Coordinate of grid line `i`, `(i+1)·h`.
fn line(i: usize, h: f64) -> f64 {
    (i as f64 + 1.0) * h
}

/// `sin(π·x)` on the grid lines `0..n`. The sin·sin fields are separable,
/// so one table serves both axes: `n` sine calls instead of `n²`. Each
/// product keeps the operand order of [`Manufactured::u`] and
/// [`Manufactured::f`], so the samples are bit-identical to evaluating
/// them point by point.
fn sin_line(n: usize, h: f64) -> Vec<f64> {
    (0..n).map(|i| (PI * line(i, h)).sin()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check that f really is -∇²u for each case.
    #[test]
    fn forcing_matches_negative_laplacian() {
        let h = 1.0e-4;
        for m in Manufactured::all() {
            for &(x, y) in &[(0.3, 0.4), (0.5, 0.5), (0.71, 0.13)] {
                let lap = (m.u(x + h, y) + m.u(x - h, y) + m.u(x, y + h) + m.u(x, y - h)
                    - 4.0 * m.u(x, y))
                    / (h * h);
                let err = (m.f(x, y) + lap).abs();
                assert!(err < 1e-4, "{m:?} at ({x},{y}): err {err}");
            }
        }
    }

    #[test]
    fn sinsin_and_bubble_vanish_on_boundary() {
        for m in [Manufactured::SinSin, Manufactured::Bubble] {
            for t in [0.0, 0.25, 0.5, 1.0] {
                assert!(m.u(t, 0.0).abs() < 1e-15);
                assert!(m.u(t, 1.0).abs() < 1e-12);
                assert!(m.u(0.0, t).abs() < 1e-15);
                assert!(m.u(1.0, t).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn samples_are_bit_identical_to_pointwise_evaluation() {
        for m in Manufactured::all() {
            for n in [1usize, 2, 7, 31, 64] {
                let h = 1.0 / (n as f64 + 1.0);
                let (u, f) = (m.sample_u(n, h), m.sample_f(n, h));
                for r in 0..n {
                    for c in 0..n {
                        let (x, y) = ((c as f64 + 1.0) * h, (r as f64 + 1.0) * h);
                        assert_eq!(u.get(r, c).to_bits(), m.u(x, y).to_bits(), "{m:?} u ({r},{c})");
                        assert_eq!(f.get(r, c).to_bits(), m.f(x, y).to_bits(), "{m:?} f ({r},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn saddle_is_harmonic() {
        assert_eq!(Manufactured::Saddle.f(0.2, 0.9), 0.0);
        assert_eq!(Manufactured::Saddle.u(0.5, 0.5), 0.0);
        assert_eq!(Manufactured::Saddle.u(1.0, 0.0), 1.0);
    }
}
