//! Shared low-rank corner-correction machinery (Woodbury identity).
//!
//! The worst-case PVT corner sets of this project share their mesh,
//! passives, sources, and gmin regularization — corners differ only in
//! device stamps, which touch a handful of matrix rows independent of
//! mesh depth. The corner paths exploit that through the **base corner**:
//! sibling `b` is a low-rank update `A_b = A0 + P_R N_b` over the support
//! rows `R`, and its adjoint vector `z_b = A_b⁻ᵀ e_out` follows from the
//! base's through the transposed Woodbury identity
//!
//! `z_b = z - V N_bᵀ S_b^{-T} z|_R`,  `z = A0^{-T} e_out`,  `S_b = I + N_b W`,
//!
//! where `V` holds `V_c = A0^{-T} e_c` for each column `c` of the
//! difference column support `C` ([`CornerDiff::cols`]) and
//! `W = A0⁻¹ P_R` enters only through its entries `W[c][j] = V_c[R_j]`, so
//! no forward solve is needed. The AC transfer and every noise transfer
//! to the output are dot products with `z_b`. The adjoint row that
//! applies this per frequency point, shared by the AC sweep
//! ([`crate::ac::ac_sweep_corners`]) and the noise analysis
//! ([`crate::noise::noise_analysis_corners`]), is
//! [`crate::ac::CornerSet`]; it instantiates these helpers at
//! [`Complex`](crate::complex::Complex) with the per-frequency stamp
//! `dG + j·w·dC`.
//!
//! The frequency dependence enters only through the `combine` closure
//! mapping a stored `(dG, dC)` difference pair to the scalar update, so
//! [`CornerDiff`] itself is built once per corner set and reused across
//! the whole sweep.

use super::{LuFactors, Scalar};
use crate::error::SimError;

/// The stamp-difference structure of a corner set relative to its base
/// corner: which matrix rows any sibling differs on, and each corner's
/// sparse `(row, col, dG, dC)` difference list: the skeleton of the
/// corner paths' adjoint row, built once per evaluation and corrected
/// against per frequency.
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

    /// Whether the correction can pay at dimension `n`: a point costs one
    /// factorization plus `1 + |C|` transposed solves and `|R| x |R|`
    /// corrections, so a row or column support spanning a third of the
    /// system already erases the win.
    pub(crate) fn profitable(&self, n: usize) -> bool {
        3 * self.rows.len().max(self.cols.len()) < n
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

/// Factors one corner's capacitance matrix `S_b = I + N_b W` into
/// `small`, with `combine` mapping each stored `(dG, dC)` difference pair
/// to the system scalar (`dG + j·w·dC` at an AC point) — done once per
/// (corner, point), after which one transposed solve of `small` gives
/// `S_b^{-T} z|_R`. Only the columns of `wflat` that `diff` touches are
/// read.
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
