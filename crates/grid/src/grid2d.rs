//! Flat, halo-padded 2-D grid storage.
//!
//! Interior points are addressed by `(row, col)` in `0..rows × 0..cols`;
//! the surrounding halo of width `halo` holds boundary values or ghost
//! copies of neighbouring partitions and is addressed with *signed* offsets
//! through [`Grid2D::get_h`]/[`Grid2D::set_h`] or by slicing padded rows.

use crate::maxnorm::{self, max_step};
use crate::Region;

/// A dense `rows × cols` grid of `f64` with a halo border of fixed width.
///
/// Storage is row-major over the padded extent
/// `(rows + 2·halo) × (cols + 2·halo)`, so a stencil sweep over the
/// interior reads contiguous padded rows — the layout the performance
/// guides recommend (flat `Vec`, no per-row allocation).
#[derive(Debug, Clone, PartialEq)]
pub struct Grid2D {
    rows: usize,
    cols: usize,
    halo: usize,
    data: Vec<f64>,
}

impl Grid2D {
    /// Creates a zero-filled grid.
    pub fn new(rows: usize, cols: usize, halo: usize) -> Self {
        let data = vec![0.0; (rows + 2 * halo) * (cols + 2 * halo)];
        Self { rows, cols, halo, data }
    }

    /// Creates a grid whose *interior* is initialized from `f(row, col)`;
    /// the halo stays zero.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        halo: usize,
        mut f: impl FnMut(usize, usize) -> f64,
    ) -> Self {
        let mut g = Self::new(rows, cols, halo);
        for r in 0..rows {
            for c in 0..cols {
                g.set(r, c, f(r, c));
            }
        }
        g
    }

    /// Interior row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Interior column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Halo width.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Padded row stride.
    pub fn stride(&self) -> usize {
        self.cols + 2 * self.halo
    }

    /// Flat index of interior point `(r, c)`.
    #[inline]
    pub fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.rows && c < self.cols);
        (r + self.halo) * self.stride() + (c + self.halo)
    }

    /// Flat index of the padded point at signed offsets from the interior
    /// origin; `(-1, 0)` is the halo cell just above interior `(0, 0)`.
    #[inline]
    pub fn idx_h(&self, r: isize, c: isize) -> usize {
        let rr = r + self.halo as isize;
        let cc = c + self.halo as isize;
        debug_assert!(rr >= 0 && cc >= 0);
        debug_assert!((rr as usize) < self.rows + 2 * self.halo);
        debug_assert!((cc as usize) < self.cols + 2 * self.halo);
        rr as usize * self.stride() + cc as usize
    }

    /// Reads interior point `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[self.idx(r, c)]
    }

    /// Writes interior point `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        let i = self.idx(r, c);
        self.data[i] = v;
    }

    /// Reads a padded point by signed offset (halo included).
    #[inline]
    pub fn get_h(&self, r: isize, c: isize) -> f64 {
        self.data[self.idx_h(r, c)]
    }

    /// Writes a padded point by signed offset (halo included).
    #[inline]
    pub fn set_h(&mut self, r: isize, c: isize, v: f64) {
        let i = self.idx_h(r, c);
        self.data[i] = v;
    }

    /// The whole padded backing slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The whole padded backing slice, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A padded row (halo columns included) at signed row offset.
    pub fn padded_row(&self, r: isize) -> &[f64] {
        let start = self.idx_h(r, -(self.halo as isize));
        &self.data[start..start + self.stride()]
    }

    /// A padded row (halo columns included) at signed row offset, mutably.
    pub fn padded_row_mut(&mut self, r: isize) -> &mut [f64] {
        let start = self.idx_h(r, -(self.halo as isize));
        let stride = self.stride();
        &mut self.data[start..start + stride]
    }

    /// The interior cells of row `r` (halo columns excluded).
    pub fn interior_row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        let start = (r + self.halo) * self.stride() + self.halo;
        &self.data[start..start + self.cols]
    }

    /// The interior cells of row `r` (halo columns excluded), mutably.
    pub fn interior_row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        let start = (r + self.halo) * self.stride() + self.halo;
        let cols = self.cols;
        &mut self.data[start..start + cols]
    }

    /// Splits the padded storage around interior row `r`: returns
    /// `(above, row, below)` where `row` is the padded row `r` (mutable),
    /// `above` is everything before it and `below` everything after, both
    /// immutable. `above` ends with the `halo` padded rows directly above
    /// `r` (each [`stride`](Grid2D::stride) long, nearest last) and `below`
    /// starts with the ones directly beneath — the slices an in-place
    /// Gauss-Seidel row kernel needs without aliasing the row being
    /// written.
    pub fn split_row_mut(&mut self, r: usize) -> (&[f64], &mut [f64], &[f64]) {
        debug_assert!(r < self.rows);
        let stride = self.stride();
        let start = (r + self.halo) * stride;
        let (above, rest) = self.data.split_at_mut(start);
        let (row, below) = rest.split_at_mut(stride);
        (above, row, below)
    }

    /// Fills the interior with a constant.
    pub fn fill(&mut self, v: f64) {
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.set(r, c, v);
            }
        }
    }

    /// Fills the *entire halo* (all padded cells outside the interior) with
    /// a constant — the paper's "constant boundary values" assumption.
    pub fn fill_halo(&mut self, v: f64) {
        let h = self.halo as isize;
        let pr = self.rows as isize + h;
        let pc = self.cols as isize + h;
        for r in -h..pr {
            for c in -h..pc {
                let interior = r >= 0 && r < self.rows as isize && c >= 0 && c < self.cols as isize;
                if !interior {
                    self.set_h(r, c, v);
                }
            }
        }
    }

    /// Copies the values of `src_region` in `src` (interior coordinates of
    /// `src`) into this grid, placing the top-left of the region at padded
    /// offset `(dst_r, dst_c)` of `self`. Used for halo exchange.
    pub fn copy_region_from(
        &mut self,
        src: &Grid2D,
        src_region: Region,
        dst_r: isize,
        dst_c: isize,
    ) {
        for (i, r) in (src_region.r0..src_region.r1).enumerate() {
            for (j, c) in (src_region.c0..src_region.c1).enumerate() {
                let v = src.get(r, c);
                self.set_h(dst_r + i as isize, dst_c + j as isize, v);
            }
        }
    }

    /// Maximum absolute difference over interiors; grids must have the same
    /// interior shape.
    pub fn max_abs_diff(&self, other: &Grid2D) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "shape mismatch");
        (0..self.rows).fold(0.0, |m, r| {
            max_step(m, maxnorm::max_abs_diff(self.interior_row(r), other.interior_row(r)))
        })
    }

    /// Sum over interior points of `f(value)`.
    pub fn interior_fold(&self, mut acc: f64, mut f: impl FnMut(f64, f64) -> f64) -> f64 {
        for r in 0..self.rows {
            for c in 0..self.cols {
                acc = f(acc, self.get(r, c));
            }
        }
        acc
    }

    /// Swaps backing storage with another grid of identical shape — the
    /// double-buffer step of a Jacobi sweep, O(1).
    pub fn swap(&mut self, other: &mut Grid2D) {
        assert_eq!((self.rows, self.cols, self.halo), (other.rows, other.cols, other.halo));
        std::mem::swap(&mut self.data, &mut other.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trip() {
        let mut g = Grid2D::new(4, 6, 2);
        g.set(0, 0, 1.5);
        g.set(3, 5, -2.5);
        assert_eq!(g.get(0, 0), 1.5);
        assert_eq!(g.get(3, 5), -2.5);
        assert_eq!(g.get_h(0, 0), 1.5);
        assert_eq!(g.stride(), 10);
        assert_eq!(g.as_slice().len(), 8 * 10);
    }

    #[test]
    fn halo_addressing() {
        let mut g = Grid2D::new(3, 3, 1);
        g.set_h(-1, -1, 7.0);
        g.set_h(3, 3, 8.0);
        assert_eq!(g.get_h(-1, -1), 7.0);
        assert_eq!(g.get_h(3, 3), 8.0);
        // interior untouched
        assert_eq!(g.get(0, 0), 0.0);
    }

    #[test]
    fn fill_halo_leaves_interior() {
        let mut g = Grid2D::from_fn(3, 3, 2, |r, c| (r * 3 + c) as f64);
        g.fill_halo(9.0);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(g.get(r, c), (r * 3 + c) as f64);
            }
        }
        assert_eq!(g.get_h(-2, 0), 9.0);
        assert_eq!(g.get_h(4, 4), 9.0);
        assert_eq!(g.get_h(1, -1), 9.0);
    }

    #[test]
    fn padded_row_has_stride_len() {
        let mut g = Grid2D::new(2, 4, 1);
        g.fill_halo(3.0);
        g.set(0, 0, 5.0);
        let row = g.padded_row(0);
        assert_eq!(row.len(), 6);
        assert_eq!(row[0], 3.0); // left halo
        assert_eq!(row[1], 5.0); // interior (0,0)
    }

    #[test]
    fn row_accessors_agree_with_point_accessors() {
        let mut g = Grid2D::from_fn(3, 4, 2, |r, c| (r * 10 + c) as f64);
        g.fill_halo(-1.0);
        assert_eq!(g.interior_row(1), &[10.0, 11.0, 12.0, 13.0]);
        let padded = g.padded_row(1).to_vec();
        assert_eq!(padded.len(), g.stride());
        assert_eq!(&padded[2..6], g.interior_row(1));
        assert_eq!(padded[0], -1.0);
        g.interior_row_mut(1)[2] = 99.0;
        assert_eq!(g.get(1, 2), 99.0);
        g.padded_row_mut(-2)[0] = 7.0;
        assert_eq!(g.get_h(-2, -2), 7.0);
    }

    #[test]
    fn split_row_mut_partitions_the_padding() {
        let mut g = Grid2D::from_fn(3, 3, 1, |r, c| (r * 3 + c) as f64);
        g.fill_halo(5.0);
        let stride = g.stride();
        let (above, row, below) = g.split_row_mut(1);
        assert_eq!(above.len(), 2 * stride); // top halo row + interior row 0
        assert_eq!(row.len(), stride);
        assert_eq!(below.len(), 2 * stride); // interior row 2 + bottom halo
        let row_above = &above[above.len() - stride..];
        assert_eq!(row_above[1], 0.0); // interior (0,0)
        assert_eq!(row[1], 3.0); // interior (1,0)
        assert_eq!(below[1], 6.0); // interior (2,0)
        row[1] = -9.0;
        assert_eq!(g.get(1, 0), -9.0);
    }

    #[test]
    fn copy_region_lands_in_halo() {
        let src = Grid2D::from_fn(4, 4, 0, |r, c| (10 * r + c) as f64);
        let mut dst = Grid2D::new(4, 4, 1);
        // Copy src's bottom row into dst's top halo row.
        dst.copy_region_from(&src, Region::new(3, 4, 0, 4), -1, 0);
        for c in 0..4 {
            assert_eq!(dst.get_h(-1, c as isize), (30 + c) as f64);
        }
    }

    #[test]
    fn swap_is_cheap_and_total() {
        let mut a = Grid2D::from_fn(2, 2, 1, |_, _| 1.0);
        let mut b = Grid2D::from_fn(2, 2, 1, |_, _| 2.0);
        a.swap(&mut b);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(b.get(1, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn diff_requires_same_shape() {
        let a = Grid2D::new(2, 2, 0);
        let b = Grid2D::new(2, 3, 0);
        let _ = a.max_abs_diff(&b);
    }

    #[test]
    fn fold_and_diff() {
        let a = Grid2D::from_fn(2, 2, 0, |r, c| (r + c) as f64);
        let b = Grid2D::from_fn(2, 2, 0, |r, c| (r + c) as f64 + 0.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        let sum = a.interior_fold(0.0, |acc, v| acc + v);
        assert_eq!(sum, 0.0 + 1.0 + 1.0 + 2.0);
    }
}
