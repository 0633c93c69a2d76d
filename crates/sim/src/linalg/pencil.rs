//! Hessenberg–triangular reduction of the small-signal pencil `(G, C)`.
//!
//! An AC or noise sweep solves `(G + jωC) x = b` at every frequency point
//! with the same real `G` and `C`. One orthogonal reduction per operating
//! point,
//!
//! `Qᵀ G Z = H` (upper Hessenberg) and `Qᵀ C Z = T` (upper triangular),
//!
//! makes `H + jωT` upper Hessenberg at every ω, so each point costs an
//! O(n²) Hessenberg elimination instead of an O(n³) LU (Moler & Stewart,
//! SIAM J. Numer. Anal. 10(2), 1973; Golub & Van Loan §7.7; the
//! frequency-response use is Laub's, IEEE TAC 26(2), 1981). The pencil
//! form needs no `G⁻¹` or `C⁻¹`, so a singular `C` (voltage-source rows,
//! nodes without capacitance) is the ordinary case.
//!
//! Since `G + jωC = Q (H + jωT) Zᵀ`, the transfer from a right-hand side
//! `b` to unknown `o` is `e_oᵀ (G + jωC)⁻¹ b = vᵀ (Qᵀ b)`, where
//! `(H + jωT)ᵀ v = Zᵀ e_o` (a plain transpose, not the conjugate). One
//! transposed solve per point from the output row of `Z` therefore serves
//! every right-hand side: the source vector and each noise injection are
//! projected by `Qᵀ` once per reduction and cost one dot product per
//! point.

use crate::complex::Complex;
use crate::error::SimError;
use crate::linalg::{Matrix, Scalar};

/// Pivots at or below this magnitude report [`SimError::SingularMatrix`],
/// the floor every dense AC factorization uses.
const PIVOT_FLOOR: f64 = 1e-300;

/// The reduced pencil of one linearization: `H`, `T` and the orthogonal
/// `Q`, `Z`, all `n x n` row-major. Read-only after
/// [`Pencil::reduce`], so every point of a sweep reads one reduction.
#[derive(Debug, Clone, Default)]
pub struct Pencil {
    n: usize,
    h: Vec<f64>,
    t: Vec<f64>,
    q: Vec<f64>,
    z: Vec<f64>,
    /// First row or column that is empty in both `G` and `C`: the pencil
    /// is singular at every ω. Detected on the stamps, where the zeros
    /// are exact, because the rotations would blur them into roundoff.
    empty: Option<usize>,
    /// Householder vector scratch.
    v: Vec<f64>,
}

/// Per-point scratch of [`Pencil::solve_transposed`]: the eliminated
/// `H + jωT` and its pivots. One per thread; the [`Pencil`] is shared.
#[derive(Debug, Clone, Default)]
pub struct HessenbergLu {
    a: Vec<Complex>,
    /// Multiplier of each elimination step `k` (row `k + 1` minus `l[k]`
    /// times row `k`).
    l: Vec<Complex>,
    /// Whether step `k` swapped rows `k` and `k + 1` first.
    swap: Vec<bool>,
    /// Reciprocal of each diagonal entry of `U`.
    inv: Vec<Complex>,
    /// The solution of the last transposed solve.
    v: Vec<Complex>,
}

impl HessenbergLu {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        HessenbergLu::default()
    }
}

/// `(c, s)` of the rotation taking `(a, b)` to `(hypot(a, b), 0)`.
#[inline]
fn givens(a: f64, b: f64) -> (f64, f64) {
    let r = a.hypot(b);
    (a / r, b / r)
}

/// Rotates the pair `(x, y)` in place: `x' = c x + s y`, `y' = c y - s x`.
#[inline]
fn rot(x: &mut f64, y: &mut f64, c: f64, s: f64) {
    let (a, b) = (*x, *y);
    *x = c * a + s * b;
    *y = c * b - s * a;
}

impl Pencil {
    /// Creates an empty reduction; [`Pencil::reduce`] fills it.
    pub fn new() -> Self {
        Pencil::default()
    }

    /// Reduces the pencil `(g, c)` (square, same dimension): Householder
    /// QR of `c`, then Givens rotations that zero `g` below its
    /// subdiagonal column by column, each row rotation followed by the
    /// column rotation that restores `T`'s triangle (Golub & Van Loan
    /// Algorithm 7.7.1). O(n³) once; buffers are reused across calls.
    pub fn reduce(&mut self, g: &Matrix<f64>, c: &Matrix<f64>) {
        let n = g.rows();
        self.n = n;
        self.h.clear();
        self.h.extend_from_slice(&g.data);
        self.t.clear();
        self.t.extend_from_slice(&c.data);
        for m in [&mut self.q, &mut self.z] {
            m.clear();
            m.resize(n * n, 0.0);
            for i in 0..n {
                m[i * n + i] = 1.0;
            }
        }
        // lint:allow(float-eq) — exact-zero structure test on the stamps.
        let nz = |m: &[f64], i: usize| m[i] != 0.0;
        self.empty = (0..n).find(|&i| {
            let row = (0..n).all(|j| !nz(&self.h, i * n + j) && !nz(&self.t, i * n + j));
            let col = (0..n).all(|r| !nz(&self.h, r * n + i) && !nz(&self.t, r * n + i));
            row || col
        });
        self.householder_c();
        self.givens_g();
    }

    /// `T <- Q1ᵀ C`, `H <- Q1ᵀ G`, `Q <- Q1`, with `Q1` the product of the
    /// Householder reflections of `C`'s QR.
    fn householder_c(&mut self) {
        let n = self.n;
        let Pencil { h, t, q, v, .. } = self;
        v.clear();
        v.resize(n, 0.0);
        for k in 0..n.saturating_sub(1) {
            let scale = (k..n).fold(0.0f64, |m, i| m.max(t[i * n + k].abs()));
            // lint:allow(float-eq) — exact-zero guard: nothing to reflect.
            if scale == 0.0 {
                continue;
            }
            let ss: f64 = (k..n).map(|i| (t[i * n + k] / scale).powi(2)).sum();
            let norm = scale * ss.sqrt();
            let x0 = t[k * n + k];
            let alpha = if x0 >= 0.0 { -norm } else { norm };
            for i in k..n {
                v[i] = t[i * n + k];
            }
            v[k] -= alpha;
            // vᵀv = 2‖x‖(‖x‖ + |x0|), so the reflection is I - tau v vᵀ.
            let tau = 1.0 / (norm * (norm + x0.abs()));
            let reflect_cols = |m: &mut [f64], lo: usize| {
                for j in lo..n {
                    let s = tau * (k..n).map(|i| v[i] * m[i * n + j]).sum::<f64>();
                    for i in k..n {
                        m[i * n + j] -= s * v[i];
                    }
                }
            };
            reflect_cols(t, k + 1);
            reflect_cols(h, 0);
            t[k * n + k] = alpha;
            for i in k + 1..n {
                t[i * n + k] = 0.0;
            }
            for row in q.chunks_exact_mut(n) {
                let s = tau * (k..n).map(|i| row[i] * v[i]).sum::<f64>();
                for i in k..n {
                    row[i] -= s * v[i];
                }
            }
        }
    }

    /// Zeros `H` below its subdiagonal while keeping `T` upper
    /// triangular: a row rotation per entry, then a column rotation for
    /// the fill it leaves in `T`.
    fn givens_g(&mut self) {
        let n = self.n;
        let Pencil { h, t, q, z, .. } = self;
        for j in 0..n.saturating_sub(2) {
            for i in (j + 2..n).rev() {
                let b = h[i * n + j];
                // lint:allow(float-eq) — exact-zero guard: already reduced.
                if b == 0.0 {
                    continue;
                }
                let (c, s) = givens(h[(i - 1) * n + j], b);
                let (upper, lower) = h.split_at_mut(i * n);
                for (x, y) in upper[(i - 1) * n + j..].iter_mut().zip(&mut lower[j..n]) {
                    rot(x, y, c, s);
                }
                lower[j] = 0.0;
                let (upper, lower) = t.split_at_mut(i * n);
                for (x, y) in upper[(i - 1) * n + i - 1..]
                    .iter_mut()
                    .zip(&mut lower[i - 1..n])
                {
                    rot(x, y, c, s);
                }
                for row in q.chunks_exact_mut(n) {
                    let (x, y) = row.split_at_mut(i);
                    rot(&mut x[i - 1], &mut y[0], c, s);
                }

                let b = t[i * n + i - 1];
                // lint:allow(float-eq) — exact-zero guard: no fill.
                if b == 0.0 {
                    continue;
                }
                let (c, s) = givens(t[i * n + i], b);
                for (r, row) in t.chunks_exact_mut(n).enumerate().take(i + 1) {
                    let (x, y) = row.split_at_mut(i);
                    rot(&mut y[0], &mut x[i - 1], c, s);
                    if r == i {
                        x[i - 1] = 0.0;
                    }
                }
                for m in [&mut *h, &mut *z] {
                    for row in m.chunks_exact_mut(n) {
                        let (x, y) = row.split_at_mut(i);
                        rot(&mut y[0], &mut x[i - 1], c, s);
                    }
                }
            }
        }
    }

    /// Dimension of the reduced system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// `H = Qᵀ G Z`, row-major.
    pub fn h(&self) -> &[f64] {
        &self.h
    }

    /// `T = Qᵀ C Z`, row-major.
    pub fn t(&self) -> &[f64] {
        &self.t
    }

    /// `Q`, row-major.
    pub fn q(&self) -> &[f64] {
        &self.q
    }

    /// `Z`, row-major.
    pub fn z(&self) -> &[f64] {
        &self.z
    }

    /// Row `r` of `Q`, which is `Qᵀ e_r`: the projection of a unit
    /// injection at unknown `r`.
    pub fn q_row(&self, r: usize) -> &[f64] {
        &self.q[r * self.n..(r + 1) * self.n]
    }

    /// Row `r` of `Z`, which is `Zᵀ e_r`: the right-hand side of the
    /// transposed solve that reads unknown `r`.
    pub fn z_row(&self, r: usize) -> &[f64] {
        &self.z[r * self.n..(r + 1) * self.n]
    }

    /// Writes `Qᵀ b` into `out`.
    pub fn project(&self, b: &[Complex], out: &mut Vec<Complex>) {
        out.clear();
        out.resize(self.n, Complex::ZERO);
        for (&br, row) in b.iter().zip(self.q.chunks_exact(self.n.max(1))) {
            for (o, &qv) in out.iter_mut().zip(row) {
                *o += br * qv;
            }
        }
    }

    /// Solves `(H + jwT)ᵀ v = c` for angular frequency `w` and returns
    /// `v`. With `c` the output row of `Z` ([`Pencil::z_row`]), `v · Qᵀb`
    /// is the output's response to any right-hand side `b`.
    ///
    /// The elimination runs down the subdiagonal, choosing each pivot
    /// between the two rows that can hold it (partial pivoting restricted
    /// to a Hessenberg matrix's only candidates).
    ///
    /// # Errors
    ///
    /// [`SimError::SingularMatrix`] when a pivot is at or below 1e-300 in
    /// magnitude, or when `G` and `C` share an empty row or column.
    pub fn solve_transposed<'s>(
        &self,
        w: f64,
        c: &[f64],
        lu: &'s mut HessenbergLu,
    ) -> Result<&'s [Complex], SimError> {
        let n = self.n;
        if let Some(column) = self.empty {
            return Err(SimError::SingularMatrix { column });
        }
        let HessenbergLu { a, l, swap, inv, v } = lu;
        a.clear();
        a.resize(n * n, Complex::ZERO);
        for i in 0..n {
            let lo = i.saturating_sub(1);
            let (hr, tr) = (&self.h[i * n..(i + 1) * n], &self.t[i * n..(i + 1) * n]);
            for j in lo..n {
                a[i * n + j] = Complex::new(hr[j], w * tr[j]);
            }
        }
        l.clear();
        l.resize(n, Complex::ZERO);
        swap.clear();
        swap.resize(n, false);
        inv.clear();
        inv.resize(n, Complex::ZERO);
        for k in 0..n {
            if k + 1 < n && a[(k + 1) * n + k].abs_gt(a[k * n + k]) {
                let (top, bottom) = a.split_at_mut((k + 1) * n);
                top[k * n + k..].swap_with_slice(&mut bottom[k..n]);
                swap[k] = true;
            }
            let p = a[k * n + k];
            if p.below_floor(PIVOT_FLOOR) {
                return Err(SimError::SingularMatrix { column: k });
            }
            inv[k] = p.recip();
            if k + 1 < n {
                let (top, bottom) = a.split_at_mut((k + 1) * n);
                let m = bottom[k] * inv[k];
                l[k] = m;
                for (x, &u) in bottom[k + 1..n].iter_mut().zip(&top[k * n + k + 1..]) {
                    *x -= m * u;
                }
            }
        }
        // Uᵀ y = c, forward; then undo each step's multiplier and swap in
        // reverse order: v = P0 M0ᵀ ... P(n-2) M(n-2)ᵀ y.
        v.clear();
        v.resize(n, Complex::ZERO);
        for k in 0..n {
            let mut s = Complex::from_re(c[k]);
            for i in 0..k {
                s -= a[i * n + k] * v[i];
            }
            v[k] = s * inv[k];
        }
        for k in (0..n.saturating_sub(1)).rev() {
            let next = v[k + 1];
            v[k] -= l[k] * next;
            if swap[k] {
                v.swap(k, k + 1);
            }
        }
        Ok(v)
    }
}

/// `Σ v_i x_i`, the bilinear (unconjugated) product that reads a
/// response off a transposed solve.
#[inline]
pub(crate) fn dot(v: &[Complex], x: &[Complex]) -> Complex {
    v.iter().zip(x).fold(Complex::ZERO, |s, (&a, &b)| s + a * b)
}

/// `Σ v_i x_i` against a real projection (a noise injection's `Qᵀ u`).
#[inline]
pub(crate) fn dot_re(v: &[Complex], x: &[f64]) -> Complex {
    v.iter().zip(x).fold(Complex::ZERO, |s, (&a, &b)| s + a * b)
}
