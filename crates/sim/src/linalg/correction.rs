//! Shared low-rank corner-correction machinery (Woodbury identity).
//!
//! The worst-case PVT corner sets of this project share their mesh,
//! passives, sources, and gmin regularization — corners differ only in
//! device stamps, which touch a handful of matrix rows independent of
//! mesh depth. Every corner-batched fast path exploits that the same way:
//! factor the **base corner once**, express sibling `b` as a low-rank
//! update `A_b = A0 + P_R N_b` over the support rows `R`, and recover its
//! solution through the Woodbury identity
//!
//! `x_b = y0 - W (I + N_b W)^{-1} N_b y0`,  `W = A0^{-1} P_R`.
//!
//! This module is the single home of that machinery. Its users, the AC
//! sweep ([`crate::ac::ac_sweep_corners`]) and the noise analysis
//! ([`crate::noise::noise_analysis_corners`]), instantiate it at
//! [`Complex`](crate::complex::Complex) with the per-frequency stamp
//! `dG + j·w·dC`; the helpers stay generic over the system scalar.
//!
//! The AC sweep applies the identity above to the shared source vector
//! and reads one entry of `x_b` ([`corrected_entry`]). The noise analysis
//! applies its transpose to the output selector instead: with
//! `A_bᵀ = A0ᵀ + N_bᵀ P_Rᵀ`, corner `b`'s adjoint vector is
//!
//! `z_b = z - V N_bᵀ S_b^{-T} z|_R`,  `z = A0^{-T} e_out`,  `S_b = I + N_b W`,
//!
//! where `V` holds `A0^{-T} e_c` for each column `c` of the difference
//! column support `C` ([`CornerDiff::cols`]). `S_b` is the same matrix as
//! in the forward form, and `W`'s entries follow from the adjoint solves
//! as `W[c][j] = V_c[R_j]`, so that path needs no forward basis solves.
//!
//! The frequency dependence enters only through the `combine` closure
//! mapping a stored `(dG, dC)` difference pair to the scalar update, so
//! [`CornerDiff`] itself is built once per corner set and reused across
//! the whole sweep.

use super::{LuFactors, Scalar};
use crate::error::SimError;

/// The stamp-difference structure of a corner set relative to its base
/// corner: which matrix rows any sibling differs on, and each corner's
/// sparse `(row, col, dG, dC)` difference list. This is the shared
/// skeleton of every base-plus-Woodbury corner correction — the AC sweep
/// and the noise analysis both build one per evaluation and correct
/// against it per frequency.
#[derive(Debug, Clone, Default)]
pub(crate) struct CornerDiff {
    /// Union of rows any corner's stamps differ on, ascending.
    pub(crate) rows: Vec<usize>,
    /// `row -> position in rows` map (`usize::MAX` off-support).
    pub(crate) row_pos: Vec<usize>,
    /// Union of columns any corner's stamps differ on, ascending: the
    /// support of the adjoint correction.
    pub(crate) cols: Vec<usize>,
    /// `column -> position in cols` map (`usize::MAX` off-support).
    pub(crate) col_pos: Vec<usize>,
    /// Per-corner sparse stamp difference vs corner 0 (`diffs[0]` empty).
    pub(crate) diffs: Vec<Vec<(usize, usize, f64, f64)>>,
}

impl CornerDiff {
    /// Computes every corner's dense stamp difference against
    /// `patterns[0]` and the unions of affected rows and columns.
    pub(crate) fn from_patterns(
        patterns: &[Vec<(usize, usize, f64, f64)>],
        n: usize,
    ) -> CornerDiff {
        let n2 = n * n;
        let mut g0 = vec![0.0; n2];
        let mut c0 = vec![0.0; n2];
        for &(r, c, g, cc) in &patterns[0] {
            g0[r * n + c] = g;
            c0[r * n + c] = cc;
        }
        let mut gs = vec![0.0; n2];
        let mut cs = vec![0.0; n2];
        let mut diffs: Vec<Vec<(usize, usize, f64, f64)>> = vec![Vec::new()];
        for pat in &patterns[1..] {
            gs.fill(0.0);
            cs.fill(0.0);
            for &(r, c, g, cc) in pat {
                gs[r * n + c] = g;
                cs[r * n + c] = cc;
            }
            let mut d = Vec::new();
            for r in 0..n {
                for c in 0..n {
                    let i = r * n + c;
                    if gs[i] != g0[i] || cs[i] != c0[i] {
                        d.push((r, c, gs[i] - g0[i], cs[i] - c0[i]));
                    }
                }
            }
            diffs.push(d);
        }
        let (rows, row_pos) = index_support(diffs.iter().flatten().map(|d| d.0), n);
        let (cols, col_pos) = index_support(diffs.iter().flatten().map(|d| d.1), n);
        CornerDiff {
            rows,
            row_pos,
            cols,
            col_pos,
            diffs,
        }
    }

    /// Number of support rows `|R|` — the rank of every correction.
    pub(crate) fn support(&self) -> usize {
        self.rows.len()
    }

    /// Whether the correction can pay at dimension `n`: the per-frequency
    /// cost is ~`1 + |R|/n` factorization-equivalents, so a support
    /// spanning a third of the system already erases the win.
    pub(crate) fn profitable(&self, n: usize) -> bool {
        3 * self.support() < n
    }
}

/// The distinct indices of `idx`, ascending, and the `index -> position`
/// map over `0..n` (`usize::MAX` off-support).
fn index_support(idx: impl Iterator<Item = usize>, n: usize) -> (Vec<usize>, Vec<usize>) {
    let mut set: Vec<usize> = idx.collect();
    set.sort_unstable();
    set.dedup();
    let mut pos = vec![usize::MAX; n];
    for (j, &i) in set.iter().enumerate() {
        pos[i] = j;
    }
    (set, pos)
}

/// Solves the correction basis `W = A0^{-1} P_R` — one back-substitution
/// per support row against the factored base system, shared by every
/// corner (and every right-hand side) of a frequency point.
/// `wflat` is filled column-major: `wflat[j*n..]` is the solution for
/// support row `rows[j]`.
pub(crate) fn solve_correction_basis<T: Scalar>(
    base: &LuFactors<T>,
    rows: &[usize],
    n: usize,
    unit: &mut Vec<T>,
    xcol: &mut Vec<T>,
    wflat: &mut Vec<T>,
) {
    wflat.clear();
    for &rj in rows {
        unit.clear();
        unit.resize(n, T::zero());
        unit[rj] = T::one();
        base.solve_into(unit, xcol);
        wflat.extend_from_slice(xcol);
    }
}

/// Factors one corner's capacitance matrix `S_b = I + N_b W` into
/// `small`, with `combine` mapping each stored `(dG, dC)` difference pair
/// to the system scalar (`dG + j·w·dC` for an AC point, `dG + (2/h)·dC`
/// for the trapezoidal companion) — done once per (corner, point), after
/// which [`corrected_entry`] applies it to any number of right-hand sides
/// and a transposed solve of `small` to the adjoint form. Only the columns
/// of `wflat` that `diff` touches are read.
///
/// # Errors
///
/// [`SimError::SingularMatrix`] when the corner shifted the base too hard
/// for the correction to hold (callers fall back to a direct
/// factorization of that corner).
pub(crate) fn factor_correction<T: Scalar>(
    small: &mut LuFactors<T>,
    diff: &[(usize, usize, f64, f64)],
    row_pos: &[usize],
    rn: usize,
    n: usize,
    combine: impl Fn(f64, f64) -> T,
    wflat: &[T],
) -> Result<(), SimError> {
    small.refactor_with(rn, 1e-300, |sm| {
        for i in 0..rn {
            sm[(i, i)] = T::one();
        }
        for &(r, c, dg, dc) in diff {
            let m = combine(dg, dc);
            let jr = row_pos[r];
            for j2 in 0..rn {
                sm[(jr, j2)] += m * wflat[j2 * n + c];
            }
        }
    })
}

/// Woodbury application: entry `o` of corner `b`'s solution recovered
/// from the base solution `y` —
/// `x_b[o] = y[o] - (W S_b^{-1} N_b y)[o]` — at the cost of one sparse
/// product, one `|R| x |R|` solve, and one dot product. `small` must hold
/// the corner's factored correction ([`factor_correction`]) and `combine`
/// must match the one it was factored with.
#[allow(clippy::too_many_arguments)]
pub(crate) fn corrected_entry<T: Scalar>(
    small: &LuFactors<T>,
    diff: &[(usize, usize, f64, f64)],
    row_pos: &[usize],
    wflat: &[T],
    y: &[T],
    o: Option<usize>,
    combine: impl Fn(f64, f64) -> T,
    n: usize,
    rn: usize,
    u: &mut Vec<T>,
    z: &mut Vec<T>,
) -> T {
    let Some(o) = o else {
        return T::zero();
    };
    u.clear();
    u.resize(rn, T::zero());
    for &(r, c, dg, dc) in diff {
        u[row_pos[r]] += combine(dg, dc) * y[c];
    }
    small.solve_into(u, z);
    let mut v = y[o];
    for (j2, zj) in z.iter().enumerate() {
        v -= wflat[j2 * n + o] * *zj;
    }
    v
}
