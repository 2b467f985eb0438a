//! Stencil sweep kernels and discrete residuals.
//!
//! The Jacobi update for stencil `S` at interior point `(r, c)` is
//!
//! ```text
//! u'(r,c) = ( Σ_taps coeff·u(r+dy, c+dx) + rhs_scale·h²·f(r,c) ) / divisor
//! ```
//!
//! [`jacobi_sweep`] and [`jacobi_sweep_region`] dispatch on
//! [`Stencil::kernel_kind`]: the four catalogue stencils run hand-fused
//! kernels that read whole padded row slices, while any other stencil falls
//! back to the generic tap-driven loop ([`jacobi_sweep_region_generic`]).
//! The fused kernels perform the identical arithmetic in the identical
//! order, so results are bit-for-bit equal to the generic path — the
//! property every equivalence test in this workspace leans on.
//! [`jacobi_sweep_par`] runs the same sweep row-parallel over
//! [`par::map`] bands (Jacobi reads only `src`, so parallelism cannot
//! change results either).
//!
//! [`jacobi_sweep_blend`] (and its `_region`/`_par` variants) computes
//! three things in one pass over each output row: the stencil update, the
//! ω-blend `ω·new + (1−ω)·prev`, and `max |prev − new|`, the update
//! difference a convergence check needs. A plain sweep is the same pass
//! with blend and reduction switched off, so every Jacobi sweep shares one
//! kernel per stencil. The `_region` variant is the kernel the temporal-tiling band
//! traversal ([`parspeed_grid::BandSchedule`]) drives.
//!
//! The kernel walks a row in chunks of [`LANES`] points. Each chunk reads
//! fixed-length windows of the source rows, so the compiler proves every
//! index in bounds and vectorizes the chunk; a row whose width is not a
//! multiple of [`LANES`] ends with one chunk that overlaps the previous
//! one. Recomputing those points is harmless: Jacobi is out of place, so
//! they get the same values, and a max counts a point twice at no cost.
//! Rows narrower than one chunk run point by point.
//!
//! The reduction is a *select*, `if d > m { d } else { m }`
//! ([`max_step`]), not `f64::max`. `f64::max` must return the non-NaN
//! operand whichever side the NaN is on, and that extra work keeps the
//! fold from compiling to packed max instructions; at small grids the
//! check then costs as much as the sweep. The select is exact here: every
//! `d` is an `abs()` (never `−0.0`), the fold starts at `+0.0`, so ties
//! return identical bits, and a NaN `d` compares false and leaves the
//! accumulator unchanged, just as `f64::max` ignores it. Lane-split partial
//! maxima ([`MaxLanes`]) cannot change the result because max does not
//! depend on order. [`parspeed_grid::maxnorm`] holds this fold for every
//! max-norm in the workspace.
//!
//! [`sor_sweep`] is the in-place lexicographic relaxation sweep
//! (Gauss-Seidel/SOR) under the same dispatch; its per-point relaxation
//! and running max-difference go through the crate-internal `relax_update`
//! helper, the fused convergence reduction the red-black solver shares.

use parspeed_grid::maxnorm::{self, max_step, MaxLanes, LANES};
use parspeed_grid::{par, Grid2D, Region};
use parspeed_stencil::{KernelKind, Stencil};

/// Column-tile width of the fused traversal. A tile bounds the reuse
/// distance between the padded source rows two consecutive output rows
/// share, keeping them L1-resident even when a full row (8·`n` bytes) no
/// longer fits.
const COL_TILE: usize = 512;

/// Generic Jacobi sweep over the whole interior of `src` into `dst`.
pub fn jacobi_sweep(stencil: &Stencil, src: &Grid2D, dst: &mut Grid2D, f: &Grid2D, h2: f64) {
    let region = Region::new(0, src.rows(), 0, src.cols());
    jacobi_sweep_region(stencil, src, dst, f, h2, &region, (0, 0));
}

/// Row-parallel full-interior sweep; bit-identical to [`jacobi_sweep`]
/// (each band writes disjoint `dst` rows computed from the immutable
/// `src`).
pub fn jacobi_sweep_par(stencil: &Stencil, src: &Grid2D, dst: &mut Grid2D, f: &Grid2D, h2: f64) {
    jacobi_sweep_blend_par(stencil, src, dst, f, h2, 1.0, false);
}

/// Jacobi sweep over `region` (coordinates of `f`/the global problem);
/// `offset = (row0, col0)` maps global coordinates to `src`/`dst` local
/// interior coordinates (`local = global − offset`). Used by the
/// partitioned executor where each partition owns a local grid. Routes to
/// a fused kernel when [`Stencil::kernel_kind`] identifies one and the
/// region geometry permits, falling back to
/// [`jacobi_sweep_region_generic`].
pub fn jacobi_sweep_region(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    h2: f64,
    region: &Region,
    offset: (usize, usize),
) {
    match fusable(stencil, src, dst, f, region, offset) {
        Some(kind) => {
            let pass = Pass::new(stencil, h2, 1.0, false);
            fused_region(kind, pass, src, dst, f, region, offset);
        }
        None => jacobi_sweep_region_generic(stencil, src, dst, f, h2, region, offset),
    }
}

/// The tap-interpreting fallback sweep — public so benches and identity
/// tests can compare the fused kernels against it directly.
pub fn jacobi_sweep_region_generic(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    h2: f64,
    region: &Region,
    offset: (usize, usize),
) {
    let rs_h2 = stencil.rhs_scale() * h2;
    let inv = 1.0 / stencil.divisor();
    let lc0 = region.c0 as isize - offset.1 as isize;
    for gr in region.r0..region.r1 {
        let lr = gr as isize - offset.0 as isize;
        for (lc, gc) in (lc0..).zip(region.c0..region.c1) {
            let mut acc = 0.0;
            for t in stencil.taps() {
                acc += t.coeff * src.get_h(lr + t.offset.dy as isize, lc + t.offset.dx as isize);
            }
            acc += rs_h2 * f.get(gr, gc);
            dst.set_h(lr, lc, acc * inv);
        }
    }
}

/// Fused sweep + ω-blend + optional max-norm update reduction in a single
/// pass over the full interior: computes the Jacobi update of `src` into
/// `dst`, blends `dst = ω·dst + (1−ω)·src` when `ω ≠ 1`, and — when
/// `compute_diff` — returns `max |src − dst|`. Bit-identical to
/// [`jacobi_sweep`] followed by a separate blend pass and a separate
/// `max_abs_diff` pass (the blend arithmetic and the per-point differences
/// are unchanged; a max-fold is order-independent). Returns `0.0` when
/// `compute_diff` is false.
pub fn jacobi_sweep_blend(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    h2: f64,
    omega: f64,
    compute_diff: bool,
) -> f64 {
    let region = Region::new(0, src.rows(), 0, src.cols());
    jacobi_sweep_blend_region(stencil, src, dst, f, h2, &region, (0, 0), omega, compute_diff)
}

/// [`jacobi_sweep_blend`] over one region (the temporal-tiling band
/// steps). The region's local image must lie inside the interiors of
/// `src`/`dst`. Fused kernels serve the catalogue stencils, the
/// tap-driven row loop everything else; the generic path blends and
/// reduces each output row right after computing it.
#[allow(clippy::too_many_arguments)]
pub fn jacobi_sweep_blend_region(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    h2: f64,
    region: &Region,
    offset: (usize, usize),
    omega: f64,
    compute_diff: bool,
) -> f64 {
    let pass = Pass::new(stencil, h2, omega, compute_diff);
    if let Some(kind) = fusable(stencil, src, dst, f, region, offset) {
        return fused_region(kind, pass, src, dst, f, region, offset);
    }
    let lc0 = region.c0 as isize - offset.1 as isize;
    debug_assert!(lc0 >= 0 && region.r0 >= offset.0, "blend regions are interior");
    let w = region.cols();
    let b = (lc0 + src.halo() as isize) as usize;
    let bd = (lc0 + dst.halo() as isize) as usize;
    let mut worst = 0.0f64;
    for gr in region.r0..region.r1 {
        let lr = gr as isize - offset.0 as isize;
        let out = &mut dst.padded_row_mut(lr)[bd..bd + w];
        generic_row(stencil, src, lr, lc0, gr, region.c0..region.c1, f, pass, out);
        let prev = &src.padded_row(lr)[b..b + w];
        worst = max_step(worst, blend_diff_row(out, prev, pass));
    }
    worst
}

/// Row-parallel [`jacobi_sweep_blend`] over [`par::default_threads`]
/// bands; bit-identical to it (each band writes disjoint `dst` rows from
/// the immutable `src`, and the max-norm reduction is order-independent).
pub fn jacobi_sweep_blend_par(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    h2: f64,
    omega: f64,
    compute_diff: bool,
) -> f64 {
    let region = Region::new(0, src.rows(), 0, src.cols());
    let pass = Pass::new(stencil, h2, omega, compute_diff);
    let kind = fusable(stencil, src, dst, f, &region, (0, 0));
    let (rows, cols) = (src.rows(), src.cols());
    let (dst_halo, stride) = (dst.halo(), dst.stride());
    let interior = dst.as_mut_slice().chunks_mut(stride).skip(dst_halo).take(rows).enumerate();
    par::map(interior, par::default_threads(), |(r, row)| {
        let lr = r as isize;
        let out = &mut row[dst_halo..dst_halo + cols];
        match kind {
            Some(kind) => {
                let frow = &f.padded_row(lr)[f.halo()..f.halo() + cols];
                fused_pass(kind, pass, src, src.halo(), &mut std::iter::once((lr, frow, out)))
            }
            None => {
                generic_row(stencil, src, lr, 0, r, 0..cols, f, pass, out);
                let prev = &src.padded_row(lr)[src.halo()..src.halo() + cols];
                blend_diff_row(out, prev, pass)
            }
        }
    })
    .into_iter()
    .fold(0.0, max_step)
}

/// ω-blend of a freshly computed output row against the previous iterate
/// and the row's contribution to the max-norm update difference — the
/// per-row tail of the generic (non-catalogue) kernels. The arithmetic is
/// exactly the historical two-pass form: `out = ω·out + (1−ω)·prev`, then
/// `max |prev − out|`.
fn blend_diff_row(out: &mut [f64], prev: &[f64], pass: Pass) -> f64 {
    let omega = pass.omega;
    if omega != 1.0 {
        for (o, &p) in out.iter_mut().zip(prev) {
            *o = omega * *o + (1.0 - omega) * p;
        }
    }
    if pass.diff {
        maxnorm::max_abs_diff(prev, out)
    } else {
        0.0
    }
}

/// Relaxed in-place point update plus the running max-difference fold —
/// the fused convergence reduction every in-place sweep (SOR here,
/// red-black in `redblack.rs`) shares instead of a separate diff pass.
#[inline]
pub(crate) fn relax_update(old: f64, jacobi: f64, omega: f64, worst: &mut f64) -> f64 {
    let new = old + omega * (jacobi - old);
    *worst = max_step(*worst, (new - old).abs());
    new
}

/// Fused 5-point fast path over the full interior; bit-identical to
/// [`jacobi_sweep`] with [`Stencil::five_point`]. Kept for callers that
/// know their stencil statically; everything else should go through the
/// dispatching [`jacobi_sweep`].
pub fn jacobi_sweep_5pt(src: &Grid2D, dst: &mut Grid2D, f: &Grid2D, h2: f64) {
    let region = Region::new(0, src.rows(), 0, src.cols());
    // rhs_scale = 1 and divisor = 4 exactly as the generic path computes.
    let pass = Pass { rs_h2: h2, inv: 0.25, omega: 1.0, diff: false };
    fused_region(KernelKind::FivePoint, pass, src, dst, f, &region, (0, 0));
}

/// In-place lexicographic relaxation sweep (Gauss-Seidel for `omega = 1`,
/// SOR otherwise) over the full interior of `u`; returns the max-norm
/// update difference of the sweep. Dispatches to fused row kernels for the
/// catalogue stencils; the arithmetic (and therefore the iterate sequence)
/// is identical to the tap-driven loop either way.
pub fn sor_sweep(stencil: &Stencil, u: &mut Grid2D, f: &Grid2D, h2: f64, omega: f64) -> f64 {
    let rs_h2 = stencil.rhs_scale() * h2;
    let inv = 1.0 / stencil.divisor();
    let n_rows = u.rows();
    let cols = u.cols();
    let full = Region::new(0, n_rows, 0, cols);
    // In-place update: `u` is both source and destination.
    let kind = fusable(stencil, u, u, f, &full, (0, 0));
    let mut worst = 0.0f64;
    match kind {
        Some(kind) => {
            let halo = u.halo();
            let stride = u.stride();
            for r in 0..n_rows {
                let frow = &f.padded_row(r as isize)[f.halo()..f.halo() + cols];
                let (above, mid, below) = u.split_row_mut(r);
                worst = max_step(
                    worst,
                    sor_row_fused(
                        kind, above, mid, below, stride, halo, cols, frow, rs_h2, inv, omega,
                    ),
                );
            }
        }
        None => {
            for r in 0..n_rows {
                let ri = r as isize;
                for c in 0..cols {
                    let ci = c as isize;
                    let mut acc = 0.0;
                    for t in stencil.taps() {
                        acc +=
                            t.coeff * u.get_h(ri + t.offset.dy as isize, ci + t.offset.dx as isize);
                    }
                    let jacobi = (acc + rs_h2 * f.get(r, c)) * inv;
                    let old = u.get(r, c);
                    let new = relax_update(old, jacobi, omega, &mut worst);
                    u.set(r, c, new);
                }
            }
        }
    }
    worst
}

/// Max-norm of the discrete residual `(div·u − Σ c·u_nb)/(rs·h²) − f`,
/// the fixed-point defect of the Jacobi form.
pub fn residual_max(stencil: &Stencil, u: &Grid2D, f: &Grid2D, h2: f64) -> f64 {
    let rs_h2 = stencil.rhs_scale() * h2;
    let mut worst = 0.0f64;
    for r in 0..u.rows() {
        for c in 0..u.cols() {
            let (ri, ci) = (r as isize, c as isize);
            let mut nb = 0.0;
            for t in stencil.taps() {
                nb += t.coeff * u.get_h(ri + t.offset.dy as isize, ci + t.offset.dx as isize);
            }
            let res = (stencil.divisor() * u.get(r, c) - nb) / rs_h2 - f.get(r, c);
            worst = max_step(worst, res.abs());
        }
    }
    worst
}

/// Whether the fused kernel for `stencil` may sweep `region`: a kernel
/// must exist and the region's local image must stay `reach` away from
/// the edge of the *padded* extents of `src` and `dst`, so every padded
/// row slice the kernel takes is in bounds. A region confined to the
/// interiors of grids with halo ≥ reach always qualifies; so do the
/// halo-overlapping expanded regions the deep-halo executor sweeps, as
/// long as the halo is at least one reach wider than the overlap. (The
/// generic path can additionally write the outermost halo ring, which
/// the fused path cannot slice.)
fn fusable(
    stencil: &Stencil,
    src: &Grid2D,
    dst: &Grid2D,
    f: &Grid2D,
    region: &Region,
    offset: (usize, usize),
) -> Option<KernelKind> {
    let kind = stencil.kernel_kind()?;
    let k = stencil.reach() as isize;
    let lr0 = region.r0 as isize - offset.0 as isize;
    let lr1 = region.r1 as isize - offset.0 as isize;
    let lc0 = region.c0 as isize - offset.1 as isize;
    let lc1 = region.c1 as isize - offset.1 as isize;
    let margin_ok = |g: &Grid2D| {
        let h = g.halo() as isize;
        lr0 >= k - h
            && lr1 <= g.rows() as isize + h - k
            && lc0 >= k - h
            && lc1 <= g.cols() as isize + h - k
    };
    let ok = lr1 >= lr0
        && lc1 >= lc0
        && margin_ok(src)
        && margin_ok(dst)
        && region.r1 <= f.rows()
        && region.c1 <= f.cols();
    ok.then_some(kind)
}

/// The scalars of one pass: the stencil's `rhs_scale·h²` and
/// `1/divisor`, the blend weight (`1.0` means no blend), and whether to
/// reduce the update difference.
#[derive(Debug, Clone, Copy)]
struct Pass {
    rs_h2: f64,
    inv: f64,
    omega: f64,
    diff: bool,
}

impl Pass {
    fn new(stencil: &Stencil, h2: f64, omega: f64, diff: bool) -> Self {
        Self { rs_h2: stencil.rhs_scale() * h2, inv: 1.0 / stencil.divisor(), omega, diff }
    }
}

/// Fused pass over a region (`fusable` must have accepted it), in column
/// tiles of at most [`COL_TILE`]; a region no wider than one tile is a
/// single run over its rows. Returns the update difference (`0.0` unless
/// `pass.diff`).
fn fused_region(
    kind: KernelKind,
    pass: Pass,
    src: &Grid2D,
    dst: &mut Grid2D,
    f: &Grid2D,
    region: &Region,
    offset: (usize, usize),
) -> f64 {
    // Local coordinates of the region can be negative (deep-halo expanded
    // regions); `fusable` guarantees the padded offsets are non-negative
    // and every slice in bounds.
    let lr0 = region.r0 as isize - offset.0 as isize;
    let (f_stride, d_stride) = (f.stride(), dst.stride());
    let (f_row0, d_row0) = (region.r0 + f.halo(), (lr0 + dst.halo() as isize) as usize);
    let mut worst = 0.0f64;
    for tc0 in (region.c0..region.c1).step_by(COL_TILE) {
        let w = COL_TILE.min(region.c1 - tc0);
        let lc0 = tc0 as isize - offset.1 as isize;
        let b = (lc0 + src.halo() as isize) as usize;
        let bd = (lc0 + dst.halo() as isize) as usize;
        let fb = tc0 + f.halo();
        let frows = f.as_slice()[f_row0 * f_stride..].chunks(f_stride).map(|r| &r[fb..fb + w]);
        let outs = dst.as_mut_slice()[d_row0 * d_stride..]
            .chunks_mut(d_stride)
            .map(|r| &mut r[bd..bd + w]);
        let mut rows =
            (lr0..).zip(frows.zip(outs)).take(region.rows()).map(|(lr, (fr, o))| (lr, fr, o));
        worst = max_step(worst, fused_pass(kind, pass, src, b, &mut rows));
    }
    worst
}

/// The output rows of one fused pass: (local row of `src`, forcing slice,
/// output slice of the same width). Taken as a trait object so each kernel
/// is compiled once, not once per row source; a row costs one indirect
/// call.
type Rows<'r, 'a> = &'r mut dyn Iterator<Item = (isize, &'a [f64], &'a mut [f64])>;

/// Runs the catalogue kernel `kind` over `rows`; `b` is the padded `src`
/// column of every row's first output point. Picks the
/// monomorphized kernel for the stencil, blend and reduction once, outside
/// the row loop.
fn fused_pass<'a>(kind: KernelKind, pass: Pass, src: &Grid2D, b: usize, rows: Rows<'_, 'a>) -> f64 {
    match kind {
        KernelKind::FivePoint => by_mode::<3, FivePoint>(pass, src, b, rows),
        KernelKind::NinePointBox => by_mode::<3, NinePointBox>(pass, src, b, rows),
        KernelKind::NinePointStar => by_mode::<5, NinePointStar>(pass, src, b, rows),
        KernelKind::ThirteenPointStar => by_mode::<5, ThirteenPointStar>(pass, src, b, rows),
    }
}

/// Picks the kernel instance for the pass's blend and reduction.
fn by_mode<'a, const N: usize, K: Taps<N>>(
    pass: Pass,
    src: &Grid2D,
    b: usize,
    rows: Rows<'_, 'a>,
) -> f64 {
    match (pass.omega != 1.0, pass.diff) {
        (false, false) => rows_pass::<N, K, false, false>(pass, src, b, rows),
        (true, false) => rows_pass::<N, K, true, false>(pass, src, b, rows),
        (false, true) => rows_pass::<N, K, false, true>(pass, src, b, rows),
        (true, true) => rows_pass::<N, K, true, true>(pass, src, b, rows),
    }
}

/// The single-pass row kernel. For each output row it slices the `N`
/// source rows `lr − N/2 ..= lr + N/2` from column `b − N/2` to
/// `b + w + N/2`, so point `j` of the row is column `j + N/2` of every
/// window, and [`Taps::sum`] adds up the neighbourhood of such a column.
/// The row's centre window is the previous iterate the blend and the
/// difference read. Full chunks of [`LANES`] points run on fixed-length
/// windows; see the module documentation for the overlapping last chunk
/// and the select reduction.
fn rows_pass<'a, const N: usize, K: Taps<N>, const BLEND: bool, const DIFF: bool>(
    pass: Pass,
    src: &Grid2D,
    b: usize,
    rows: Rows<'_, 'a>,
) -> f64 {
    let reach = N / 2;
    let (s, stride) = (src.as_slice(), src.stride());
    let mut lanes = MaxLanes::default();
    let mut narrow = 0.0f64;
    for (lr, frow, out) in rows {
        let w = out.len();
        let first = (lr + src.halo() as isize) as usize - reach;
        let row0 = first * stride + b - reach;
        let win: [&[f64]; N] = std::array::from_fn(|k| {
            let at = row0 + k * stride;
            &s[at..at + w + N - 1]
        });
        if w < LANES {
            for (j, (o, &fv)) in out.iter_mut().zip(frow).enumerate() {
                let (v, prev) = point::<N, K, BLEND>(pass, &win, j + reach, fv);
                *o = v;
                if DIFF {
                    narrow = max_step(narrow, (prev - v).abs());
                }
            }
            continue;
        }
        let mut i0 = 0;
        while i0 < w {
            let at = i0.min(w - LANES);
            let cw: [&[f64]; N] = std::array::from_fn(|k| &win[k][at..at + LANES + N - 1]);
            let fc: &[f64; LANES] = frow[at..at + LANES].try_into().expect("chunk");
            // All loads before any store: `out` may alias `src` as far
            // as the compiler knows, and a store between two lanes' loads
            // would keep the chunk from vectorizing.
            let (mut v, mut d) = ([0.0; LANES], [0.0; LANES]);
            for l in 0..LANES {
                let prev;
                (v[l], prev) = point::<N, K, BLEND>(pass, &cw, l + reach, fc[l]);
                d[l] = (prev - v[l]).abs();
            }
            out[at..at + LANES].copy_from_slice(&v);
            if DIFF {
                lanes.push(&d);
            }
            i0 += LANES;
        }
    }
    lanes.finish(narrow)
}

/// One output point of [`rows_pass`] at window column `c` with forcing
/// `fv`: the update, blended when `BLEND`, and the previous iterate there.
#[inline(always)]
fn point<const N: usize, K: Taps<N>, const BLEND: bool>(
    pass: Pass,
    win: &[&[f64]; N],
    c: usize,
    fv: f64,
) -> (f64, f64) {
    let mut acc = K::sum(win, c);
    acc += pass.rs_h2 * fv;
    let new = acc * pass.inv;
    let prev = win[N / 2][c];
    let omega = pass.omega;
    let out = if BLEND { omega * new + (1.0 - omega) * prev } else { new };
    (out, prev)
}

/// A catalogue stencil's neighbourhood sum over `N` source-row windows
/// (`N = 2·reach + 1`, nearest row in the middle).
trait Taps<const N: usize> {
    /// `Σ coeff·u` around column `c` of the windows, in catalogue tap
    /// order (bit-identity with the generic path).
    fn sum(w: &[&[f64]; N], c: usize) -> f64;
}

struct FivePoint;
struct NinePointBox;
struct NinePointStar;
struct ThirteenPointStar;

impl Taps<3> for FivePoint {
    /// Tap order N, S, W, E (unit coefficients).
    #[inline(always)]
    fn sum(w: &[&[f64]; 3], c: usize) -> f64 {
        let mut acc = w[0][c];
        acc += w[2][c];
        acc += w[1][c - 1];
        acc += w[1][c + 1];
        acc
    }
}

impl Taps<3> for NinePointBox {
    /// Tap order N, S, W, E, NW, NE, SW, SE.
    #[inline(always)]
    fn sum(w: &[&[f64]; 3], c: usize) -> f64 {
        let mut acc = 4.0 * w[0][c];
        acc += 4.0 * w[2][c];
        acc += 4.0 * w[1][c - 1];
        acc += 4.0 * w[1][c + 1];
        acc += w[0][c - 1];
        acc += w[0][c + 1];
        acc += w[2][c - 1];
        acc += w[2][c + 1];
        acc
    }
}

impl Taps<5> for NinePointStar {
    /// Tap order N, S, W, E, NN, SS, WW, EE; the −1 coefficients negate
    /// exactly, so `acc -= x` ≡ `acc += -1.0·x`.
    #[inline(always)]
    fn sum(w: &[&[f64]; 5], c: usize) -> f64 {
        let mut acc = 16.0 * w[1][c];
        acc += 16.0 * w[3][c];
        acc += 16.0 * w[2][c - 1];
        acc += 16.0 * w[2][c + 1];
        acc -= w[0][c];
        acc -= w[4][c];
        acc -= w[2][c - 2];
        acc -= w[2][c + 2];
        acc
    }
}

impl Taps<5> for ThirteenPointStar {
    /// Tap order N, S, W, E, NN, SS, WW, EE (the 9-point star's), then
    /// NW, NE, SW, SE.
    #[inline(always)]
    fn sum(w: &[&[f64]; 5], c: usize) -> f64 {
        let mut acc = NinePointStar::sum(w, c);
        acc += 4.0 * w[1][c - 1];
        acc += 4.0 * w[1][c + 1];
        acc += 4.0 * w[3][c - 1];
        acc += 4.0 * w[3][c + 1];
        acc
    }
}

/// One generic (tap-driven) output row written into a padded `dst` row
/// slice — the fallback for stencils without a fused kernel.
#[allow(clippy::too_many_arguments)]
fn generic_row(
    stencil: &Stencil,
    src: &Grid2D,
    lr: isize,
    lc_start: isize,
    gr: usize,
    gc: std::ops::Range<usize>,
    f: &Grid2D,
    pass: Pass,
    out: &mut [f64],
) {
    for (lc, (o, gc)) in (lc_start..).zip(out.iter_mut().zip(gc)) {
        let mut acc = 0.0;
        for t in stencil.taps() {
            acc += t.coeff * src.get_h(lr + t.offset.dy as isize, lc + t.offset.dx as isize);
        }
        acc += pass.rs_h2 * f.get(gr, gc);
        *o = acc * pass.inv;
    }
}

/// One fused in-place relaxation row. `above`/`mid`/`below` come from
/// [`Grid2D::split_row_mut`]; west reads within `mid` see values already
/// relaxed this sweep, exactly like the tap-driven in-place loop. Returns
/// the row's max update difference.
#[allow(clippy::too_many_arguments)]
fn sor_row_fused(
    kind: KernelKind,
    above: &[f64],
    mid: &mut [f64],
    below: &[f64],
    stride: usize,
    halo: usize,
    cols: usize,
    frow: &[f64],
    rs_h2: f64,
    inv: f64,
    omega: f64,
) -> f64 {
    let row_above = |k: usize| &above[above.len() - k * stride..above.len() - (k - 1) * stride];
    let row_below = |k: usize| &below[(k - 1) * stride..k * stride];
    let mut worst = 0.0f64;
    let mut relax = |j: usize, acc: f64, fi: usize, mid: &mut [f64]| {
        let jacobi = (acc + rs_h2 * frow[fi]) * inv;
        mid[j] = relax_update(mid[j], jacobi, omega, &mut worst);
    };
    match kind {
        KernelKind::FivePoint => {
            let (up, down) = (row_above(1), row_below(1));
            for i in 0..cols {
                let j = i + halo;
                let mut acc = up[j];
                acc += down[j];
                acc += mid[j - 1];
                acc += mid[j + 1];
                relax(j, acc, i, mid);
            }
        }
        KernelKind::NinePointBox => {
            let (up, down) = (row_above(1), row_below(1));
            for i in 0..cols {
                let j = i + halo;
                let mut acc = 4.0 * up[j];
                acc += 4.0 * down[j];
                acc += 4.0 * mid[j - 1];
                acc += 4.0 * mid[j + 1];
                acc += up[j - 1];
                acc += up[j + 1];
                acc += down[j - 1];
                acc += down[j + 1];
                relax(j, acc, i, mid);
            }
        }
        KernelKind::NinePointStar => {
            let (up1, down1) = (row_above(1), row_below(1));
            let (up2, down2) = (row_above(2), row_below(2));
            for i in 0..cols {
                let j = i + halo;
                let mut acc = 16.0 * up1[j];
                acc += 16.0 * down1[j];
                acc += 16.0 * mid[j - 1];
                acc += 16.0 * mid[j + 1];
                acc -= up2[j];
                acc -= down2[j];
                acc -= mid[j - 2];
                acc -= mid[j + 2];
                relax(j, acc, i, mid);
            }
        }
        KernelKind::ThirteenPointStar => {
            let (up1, down1) = (row_above(1), row_below(1));
            let (up2, down2) = (row_above(2), row_below(2));
            for i in 0..cols {
                let j = i + halo;
                let mut acc = 16.0 * up1[j];
                acc += 16.0 * down1[j];
                acc += 16.0 * mid[j - 1];
                acc += 16.0 * mid[j + 1];
                acc -= up2[j];
                acc -= down2[j];
                acc -= mid[j - 2];
                acc -= mid[j + 2];
                acc += 4.0 * up1[j - 1];
                acc += 4.0 * up1[j + 1];
                acc += 4.0 * down1[j - 1];
                acc += 4.0 * down1[j + 1];
                relax(j, acc, i, mid);
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_setup(n: usize, v: f64, halo: usize) -> (Grid2D, Grid2D, Grid2D) {
        let mut src = Grid2D::new(n, n, halo);
        src.fill(v);
        src.fill_halo(v);
        let dst = Grid2D::new(n, n, halo);
        let f = Grid2D::new(n, n, 0);
        (src, dst, f)
    }

    fn patterned(n: usize, halo: usize) -> (Grid2D, Grid2D) {
        let mut src = Grid2D::from_fn(n, n, halo, |r, c| ((r * 31 + c * 17) % 7) as f64 * 0.37);
        src.fill_halo(1.25);
        let f = Grid2D::from_fn(n, n, 0, |r, c| (r as f64 - c as f64) * 0.11);
        (src, f)
    }

    #[test]
    fn constant_field_is_fixed_point_for_all_stencils() {
        for s in Stencil::catalog() {
            let halo = s.reach();
            let (src, mut dst, f) = constant_setup(6, 3.5, halo);
            jacobi_sweep(&s, &src, &mut dst, &f, 0.01);
            for r in 0..6 {
                for c in 0..6 {
                    assert!((dst.get(r, c) - 3.5).abs() < 1e-12, "{} at ({r},{c})", s.name());
                }
            }
        }
    }

    #[test]
    fn fused_is_bit_identical_to_generic_for_all_stencils() {
        for s in Stencil::catalog() {
            assert!(s.kernel_kind().is_some(), "{} must have a fused kernel", s.name());
            for n in [1usize, 2, 3, 8, 17] {
                let halo = s.reach();
                let (src, f) = patterned(n, halo);
                let region = Region::new(0, n, 0, n);
                let mut fused = Grid2D::new(n, n, halo);
                let mut generic = Grid2D::new(n, n, halo);
                jacobi_sweep(&s, &src, &mut fused, &f, 0.004);
                jacobi_sweep_region_generic(&s, &src, &mut generic, &f, 0.004, &region, (0, 0));
                assert_eq!(
                    fused.max_abs_diff(&generic),
                    0.0,
                    "{} fused differs from generic at n={n}",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        for s in Stencil::catalog() {
            let n = 19;
            let halo = s.reach();
            let (src, f) = patterned(n, halo);
            let mut seq = Grid2D::new(n, n, halo);
            let mut par = Grid2D::new(n, n, halo);
            jacobi_sweep(&s, &src, &mut seq, &f, 0.004);
            jacobi_sweep_par(&s, &src, &mut par, &f, 0.004);
            assert_eq!(seq.max_abs_diff(&par), 0.0, "{}", s.name());
        }
    }

    #[test]
    fn fast_path_is_bit_identical_to_generic() {
        let n = 8;
        let s = Stencil::five_point();
        let (src, f) = patterned(n, 1);
        let region = Region::new(0, n, 0, n);
        let mut a = Grid2D::new(n, n, 1);
        let mut b = Grid2D::new(n, n, 1);
        jacobi_sweep_region_generic(&s, &src, &mut a, &f, 0.004, &region, (0, 0));
        jacobi_sweep_5pt(&src, &mut b, &f, 0.004);
        for r in 0..n {
            for c in 0..n {
                assert_eq!(a.get(r, c), b.get(r, c), "mismatch at ({r},{c})");
            }
        }
    }

    #[test]
    fn tiling_covers_regions_wider_than_one_tile() {
        // n > COL_TILE exercises the tile seam; compare against generic.
        let n = COL_TILE + 37;
        let s = Stencil::nine_point_box();
        let mut src = Grid2D::from_fn(3, n, 1, |r, c| ((r * 13 + c * 7) % 11) as f64);
        src.fill_halo(0.5);
        let f = Grid2D::from_fn(3, n, 0, |r, c| ((r + c) % 3) as f64);
        let region = Region::new(0, 3, 0, n);
        let mut fused = Grid2D::new(3, n, 1);
        let mut generic = Grid2D::new(3, n, 1);
        jacobi_sweep_region(&s, &src, &mut fused, &f, 0.01, &region, (0, 0));
        jacobi_sweep_region_generic(&s, &src, &mut generic, &f, 0.01, &region, (0, 0));
        assert_eq!(fused.max_abs_diff(&generic), 0.0);
    }

    #[test]
    fn region_sweep_updates_only_the_region() {
        let s = Stencil::five_point();
        let mut src = Grid2D::new(4, 4, 1);
        src.fill(1.0);
        src.fill_halo(1.0);
        let f = Grid2D::new(4, 4, 0);
        let mut dst = Grid2D::new(4, 4, 1);
        let region = Region::new(1, 3, 1, 3);
        jacobi_sweep_region(&s, &src, &mut dst, &f, 0.01, &region, (0, 0));
        assert_eq!(dst.get(1, 1), 1.0);
        assert_eq!(dst.get(0, 0), 0.0); // untouched
    }

    #[test]
    fn offset_maps_global_to_local() {
        // A 2×4 partition covering global rows 2..4 of a 4-row problem.
        let s = Stencil::five_point();
        let mut local_src = Grid2D::new(2, 4, 1);
        local_src.fill(2.0);
        local_src.fill_halo(2.0);
        let mut local_dst = Grid2D::new(2, 4, 1);
        let f = Grid2D::new(4, 4, 0); // global forcing
        let region = Region::new(2, 4, 0, 4);
        jacobi_sweep_region(&s, &local_src, &mut local_dst, &f, 0.01, &region, (2, 0));
        for r in 0..2 {
            for c in 0..4 {
                assert!((local_dst.get(r, c) - 2.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn offset_region_fused_matches_generic() {
        // The partitioned-executor shape: local grid = region, offset maps
        // global to local, forcing is global.
        for s in Stencil::catalog() {
            let halo = s.reach();
            let n = 9;
            let region = Region::new(3, 7, 0, n);
            let mut local_src = Grid2D::from_fn(region.rows(), region.cols(), halo, |r, c| {
                ((r * 5 + c) % 4) as f64
            });
            local_src.fill_halo(0.75);
            let f = Grid2D::from_fn(n, n, 0, |r, c| ((r * c) % 3) as f64);
            let offset = (region.r0, region.c0);
            let mut fused = Grid2D::new(region.rows(), region.cols(), halo);
            let mut generic = Grid2D::new(region.rows(), region.cols(), halo);
            jacobi_sweep_region(&s, &local_src, &mut fused, &f, 0.01, &region, offset);
            jacobi_sweep_region_generic(&s, &local_src, &mut generic, &f, 0.01, &region, offset);
            assert_eq!(fused.max_abs_diff(&generic), 0.0, "{}", s.name());
        }
    }

    #[test]
    fn blend_fusion_matches_the_three_pass_reference() {
        use parspeed_stencil::Tap;
        let mut stencils = Stencil::catalog().to_vec();
        // A non-catalogue stencil exercises the generic fallback path.
        stencils.push(Stencil::new("pair", vec![Tap::unit(0, -1), Tap::unit(0, 1)], 1.0, 2.0));
        for s in &stencils {
            for omega in [1.0, 0.8] {
                let n = 9;
                let halo = s.reach();
                let (src, f) = patterned(n, halo);
                let mut fused = Grid2D::new(n, n, halo);
                let d_fused = jacobi_sweep_blend(s, &src, &mut fused, &f, 0.004, omega, true);
                // Reference: the historical three separate passes.
                let mut reference = Grid2D::new(n, n, halo);
                jacobi_sweep(s, &src, &mut reference, &f, 0.004);
                if omega != 1.0 {
                    for r in 0..n {
                        let srow = src.interior_row(r).to_vec();
                        for (nv, &uv) in reference.interior_row_mut(r).iter_mut().zip(&srow) {
                            *nv = omega * *nv + (1.0 - omega) * uv;
                        }
                    }
                }
                assert_eq!(fused.max_abs_diff(&reference), 0.0, "{} ω={omega}", s.name());
                assert_eq!(d_fused, src.max_abs_diff(&reference), "{} ω={omega}", s.name());
                let mut par = Grid2D::new(n, n, halo);
                let d_par = jacobi_sweep_blend_par(s, &src, &mut par, &f, 0.004, omega, true);
                assert_eq!(par.max_abs_diff(&fused), 0.0, "{} ω={omega}", s.name());
                assert_eq!(d_par, d_fused, "{} ω={omega}", s.name());
            }
        }
    }

    #[test]
    fn blend_without_diff_reports_zero_but_updates() {
        let s = Stencil::five_point();
        let (src, f) = patterned(6, 1);
        let mut a = Grid2D::new(6, 6, 1);
        let mut b = Grid2D::new(6, 6, 1);
        let d = jacobi_sweep_blend(&s, &src, &mut a, &f, 0.004, 0.9, false);
        assert_eq!(d, 0.0);
        jacobi_sweep_blend(&s, &src, &mut b, &f, 0.004, 0.9, true);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn custom_stencil_falls_back_to_generic() {
        use parspeed_stencil::Tap;
        let s = Stencil::new("pair", vec![Tap::unit(0, -1), Tap::unit(0, 1)], 1.0, 2.0);
        assert!(s.kernel_kind().is_none());
        let (src, mut dst, f) = constant_setup(5, 2.0, 1);
        jacobi_sweep(&s, &src, &mut dst, &f, 0.01);
        assert!((dst.get(2, 2) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sor_sweep_fused_matches_tap_driven_iterates() {
        // Run the fused in-place sweep and an explicitly tap-driven copy of
        // the same recurrence; the iterates must agree bitwise.
        for s in Stencil::catalog() {
            let n = 7;
            let halo = s.reach();
            let (mut u_fused, f) = patterned(n, halo);
            let mut u_ref = u_fused.clone();
            let (h2, omega) = (0.01, 0.9);
            let rs_h2 = s.rhs_scale() * h2;
            let inv = 1.0 / s.divisor();
            for _ in 0..3 {
                let d = sor_sweep(&s, &mut u_fused, &f, h2, omega);
                let mut worst = 0.0f64;
                for r in 0..n {
                    for c in 0..n {
                        let (ri, ci) = (r as isize, c as isize);
                        let mut acc = 0.0;
                        for t in s.taps() {
                            acc += t.coeff
                                * u_ref.get_h(ri + t.offset.dy as isize, ci + t.offset.dx as isize);
                        }
                        let jacobi = (acc + rs_h2 * f.get(r, c)) * inv;
                        let old = u_ref.get(r, c);
                        let new = old + omega * (jacobi - old);
                        worst = worst.max((new - old).abs());
                        u_ref.set(r, c, new);
                    }
                }
                assert_eq!(u_fused.max_abs_diff(&u_ref), 0.0, "{}", s.name());
                assert_eq!(d, worst, "{}", s.name());
            }
        }
    }

    #[test]
    fn residual_zero_iff_discrete_solution() {
        // For the 5-point operator, u = x²−y² (harmonic) has zero discrete
        // residual *exactly* (the 5-point stencil is exact on quadratics).
        let n = 8;
        let h = 1.0 / (n as f64 + 1.0);
        let s = Stencil::five_point();
        let mut u = Grid2D::from_fn(n, n, 1, |r, c| {
            let (x, y) = ((c as f64 + 1.0) * h, (r as f64 + 1.0) * h);
            x * x - y * y
        });
        // Ghosts take the analytic extension.
        for r in -1..=(n as isize) {
            for c in -1..=(n as isize) {
                let interior = r >= 0 && r < n as isize && c >= 0 && c < n as isize;
                if !interior {
                    let (x, y) = ((c as f64 + 1.0) * h, (r as f64 + 1.0) * h);
                    u.set_h(r, c, x * x - y * y);
                }
            }
        }
        let f = Grid2D::new(n, n, 0);
        let res = residual_max(&s, &u, &f, h * h);
        assert!(res < 1e-10, "residual {res}");
    }

    #[test]
    fn residual_positive_for_wrong_solution() {
        let n = 6;
        let s = Stencil::five_point();
        let mut u = Grid2D::from_fn(n, n, 1, |r, c| (r * c) as f64);
        u.fill_halo(0.0);
        let f = Grid2D::new(n, n, 0);
        assert!(residual_max(&s, &u, &f, 0.01) > 1.0);
    }
}
