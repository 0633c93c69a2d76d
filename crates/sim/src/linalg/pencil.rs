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
//!
//! The point solve is latency-bound, not arithmetic-bound: each step of
//! the Hessenberg elimination must wait for the previous step's pivot
//! choice, reciprocal and multiplier, a serial chain of about 60 ns per
//! step at dims 4 and 11, around little work. The grid points of a sweep
//! are independent, so [`Pencil::solve_transposed_lanes`] solves
//! [`LANES`] of them in one pass, lane-innermost, and their chains
//! overlap. Each lane runs exactly the IEEE operations of the one-point
//! solve, in the same order, so its result is bitwise the one-point
//! result, errors included. A one-point solve is the one-lane instance,
//! `solve_transposed_lanes::<1>`.

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

/// Frequency points one elimination pass of
/// [`Pencil::solve_transposed_lanes`] solves in lockstep: the lane width
/// of the AC and noise sweeps (see the module documentation for why
/// lanes pay).
///
/// Chosen by measurement on a 2-vCPU x86-64 host. Per point (solve plus
/// source dot over the center designs' measured grid prefixes, best of
/// 400 rounds against the one-point kernel), 4 lanes ran the op-amp's
/// dim-11 points 1.76x and the TIA's dim-4 points 1.9–2.0x faster, and 2
/// lanes 1.5–1.7x and 1.7–1.8x. On the ledger the two widths read within
/// 2% of each other (`deploy_tia_pexwc` 1.6% faster at 2, `ga_opamp2`
/// 1.9% slower, 4 pairs each), where 4 also solves up to 3 points past a
/// measured sweep's stop that nothing reads. 4 keeps the per-point margin,
/// which the noise sweeps, never stopped early, collect in full.
pub const LANES: usize = 4;

/// Scratch of one transposed Hessenberg solve over `L` frequency points
/// (lanes) in lockstep: [`Pencil::solve_transposed_lanes`] fills it and
/// [`HessenbergLu::status`], [`HessenbergLu::dot`],
/// [`HessenbergLu::dot_re`] and [`HessenbergLu::solution`] read each
/// lane. One per thread; the [`Pencil`] is shared.
///
/// Every buffer is lane-innermost (`[f64; L]` per entry), with real and
/// imaginary parts apart, so each operation of the elimination runs once
/// across all lanes. The pass keeps only the live row of the partly
/// eliminated `H + jωT` and the pending right-hand side of `Uᵀ y = c`;
/// the next row is read from `H` and `T` as the pass reaches it, and `U`
/// is never stored.
///
/// `HessenbergLu<1>` is the scratch of a one-point solve.
#[derive(Debug, Clone)]
pub struct HessenbergLu<const L: usize> {
    /// The live row: row `k` of the partly eliminated `H + jωT` at step
    /// `k`, entries `k..n`.
    row_re: Vec<[f64; L]>,
    row_im: Vec<[f64; L]>,
    /// Multiplier of each elimination step `k` (row `k + 1` minus `l[k]`
    /// times row `k`).
    l_re: Vec<[f64; L]>,
    l_im: Vec<[f64; L]>,
    /// All ones where step `k` swapped rows `k` and `k + 1` first.
    swap: Vec<[u64; L]>,
    /// The pending right-hand side of `Uᵀ y = c`, overwritten by `y` as
    /// the pass goes and by the solution `v` at its end.
    v_re: Vec<[f64; L]>,
    v_im: Vec<[f64; L]>,
    /// Each lane's first singular column.
    fail: [Option<usize>; L],
}

impl<const L: usize> Default for HessenbergLu<L> {
    fn default() -> Self {
        HessenbergLu {
            row_re: Vec::new(),
            row_im: Vec::new(),
            l_re: Vec::new(),
            l_im: Vec::new(),
            swap: Vec::new(),
            v_re: Vec::new(),
            v_im: Vec::new(),
            fail: [None; L],
        }
    }
}

impl<const L: usize> HessenbergLu<L> {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        HessenbergLu::default()
    }

    /// Lane `lane` of the last solve: `Ok` when it solved, or
    /// [`SimError::SingularMatrix`] at its first singular column.
    pub fn status(&self, lane: usize) -> Result<(), SimError> {
        match self.fail[lane] {
            Some(column) => Err(SimError::SingularMatrix { column }),
            None => Ok(()),
        }
    }

    /// `Σ v_i x_i` for every lane's solution `v`: the bilinear
    /// (unconjugated) product that reads a response off a transposed
    /// solve, in the order and with the operations of a one-point fold.
    /// A lane that failed reads garbage.
    pub fn dot(&self, x: &[Complex]) -> [Complex; L] {
        let (mut re, mut im) = ([0.0; L], [0.0; L]);
        for ((vr, vi), b) in self.v_re.iter().zip(&self.v_im).zip(x) {
            for i in 0..L {
                re[i] += vr[i] * b.re - vi[i] * b.im;
                im[i] += vr[i] * b.im + vi[i] * b.re;
            }
        }
        std::array::from_fn(|i| Complex::new(re[i], im[i]))
    }

    /// [`HessenbergLu::dot`] against a real vector (a noise injection's
    /// projection `Qᵀ u`).
    pub fn dot_re(&self, x: &[f64]) -> [Complex; L] {
        let (mut re, mut im) = ([0.0; L], [0.0; L]);
        for ((vr, vi), &b) in self.v_re.iter().zip(&self.v_im).zip(x) {
            for i in 0..L {
                re[i] += vr[i] * b;
                im[i] += vi[i] * b;
            }
        }
        std::array::from_fn(|i| Complex::new(re[i], im[i]))
    }

    /// Lane `lane`'s solution `v`, entry by entry; garbage where the lane
    /// failed.
    pub fn solution(&self, lane: usize) -> impl Iterator<Item = Complex> + '_ {
        self.v_re
            .iter()
            .zip(&self.v_im)
            .map(move |(r, i)| Complex::new(r[lane], i[lane]))
    }
}

/// Lane-wise select: `a` where the mask is all ones, `b` where it is zero.
#[inline(always)]
fn select(mask: u64, a: f64, b: f64) -> f64 {
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
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

    /// Solves `(H + jw_iT)ᵀ v_i = c` for every lane `i` in one elimination
    /// pass; [`HessenbergLu::status`] reports each lane's outcome, and
    /// its dots and [`HessenbergLu::solution`] read each `v_i`. With `c`
    /// the output row of `Z` ([`Pencil::z_row`]), `v_i · Qᵀb` is the
    /// output's response at `w_i` to any right-hand side `b`.
    ///
    /// The elimination runs down the subdiagonal, choosing each pivot
    /// between the two rows that can hold it (partial pivoting restricted
    /// to a Hessenberg matrix's only candidates). Step `k` takes its
    /// pivot row as row `k` of `U`, subtracts it from the other candidate
    /// (the next live row) and from the pending right-hand side of
    /// `Uᵀ y = c`, so the forward solve rides along with the elimination;
    /// a backward pass then undoes each step's multiplier and swap:
    /// `v = P0 M0ᵀ ... P(n-2) M(n-2)ᵀ y`.
    ///
    /// **Lanes.** Each lane chooses its own pivots (its swap is a
    /// branch-free select) and runs exactly the IEEE operations, in the
    /// same order, of a one-lane solve at its `w`, so every lane is
    /// bitwise the one-point result. The point of the lanes is latency,
    /// not arithmetic: one step's pivot test, reciprocal and multiplier
    /// are a serial chain, and `L` independent points overlap `L` chains
    /// (see [`LANES`]).
    ///
    /// **Failures.** A lane whose pivot is at or below 1e-300 in
    /// magnitude, or not finite, records that column as its
    /// [`SimError::SingularMatrix`] and runs on with garbage that no
    /// other lane reads; the pass ends once every lane has failed. A
    /// row or column empty in both `G` and `C` fails every lane.
    pub fn solve_transposed_lanes<const L: usize>(
        &self,
        w: &[f64; L],
        c: &[f64],
        lu: &mut HessenbergLu<L>,
    ) {
        let n = self.n;
        if let Some(column) = self.empty {
            lu.fail = [Some(column); L];
            return;
        }
        lu.fail = [None; L];
        let HessenbergLu {
            row_re,
            row_im,
            l_re,
            l_im,
            swap,
            v_re,
            v_im,
            fail,
        } = lu;
        // The first live row is row 0 of H + jωT; the pending right-hand
        // side starts as c.
        row_re.clear();
        row_re.extend(self.h[..n].iter().map(|&h| [h; L]));
        row_im.clear();
        row_im.extend(self.t[..n].iter().map(|&t| w.map(|wi| wi * t)));
        v_re.clear();
        v_re.extend(c[..n].iter().map(|&ck| [ck; L]));
        v_im.clear();
        v_im.resize(n, [0.0; L]);
        // Written at each step before the backward pass reads them.
        l_re.resize(n, [0.0; L]);
        l_im.resize(n, [0.0; L]);
        swap.resize(n, [0; L]);
        for k in 0..n {
            // Row k + 1 of H + jωT, the other pivot candidate (empty at the
            // last step).
            let next = (k + 1 < n).then(|| {
                let row = (k + 1) * n..(k + 2) * n;
                (&self.h[row.clone()], &self.t[row])
            });
            let mut sw = [0u64; L];
            let (mut m_re, mut m_im) = ([0.0; L], [0.0; L]);
            let (mut y_re, mut y_im) = ([0.0; L], [0.0; L]);
            for i in 0..L {
                let r = Complex::new(row_re[k][i], row_im[k][i]);
                let (p, o) = match next {
                    Some((hn, tn)) => {
                        let x = Complex::new(hn[k], w[i] * tn[k]);
                        if x.abs_gt(r) {
                            sw[i] = !0;
                            (x, r)
                        } else {
                            (r, x)
                        }
                    }
                    None => (r, Complex::ZERO),
                };
                if p.below_floor(PIVOT_FLOOR) && fail[i].is_none() {
                    fail[i] = Some(k);
                }
                let inv = p.recip();
                let y = Complex::new(v_re[k][i], v_im[k][i]) * inv;
                let m = o * inv;
                (y_re[i], y_im[i], m_re[i], m_im[i]) = (y.re, y.im, m.re, m.im);
            }
            if fail.iter().all(Option::is_some) {
                return;
            }
            (v_re[k], v_im[k]) = (y_re, y_im);
            let Some((hn, tn)) = next else {
                break;
            };
            (l_re[k], l_im[k], swap[k]) = (m_re, m_im, sw);
            // Row k of U is the pivot row: the other candidate minus m times
            // it becomes the live row, and y[k] times it leaves the pending
            // right-hand side of Uᵀ y = c.
            let step = Step {
                w,
                sw,
                m_re,
                m_im,
                y_re,
                y_im,
            };
            step.update(
                &mut row_re[k + 1..n],
                &mut row_im[k + 1..n],
                &mut v_re[k + 1..n],
                &mut v_im[k + 1..n],
                &hn[k + 1..n],
                &tn[k + 1..n],
            );
        }
        back_substitute(v_re, v_im, l_re, l_im, swap);
    }
}

/// One elimination step's lane data: the pivot row's swap masks, its
/// multipliers `m` and the new entry `y[k]` of `Uᵀ y = c`.
struct Step<'a, const L: usize> {
    w: &'a [f64; L],
    sw: [u64; L],
    m_re: [f64; L],
    m_im: [f64; L],
    y_re: [f64; L],
    y_im: [f64; L],
}

impl<const L: usize> Step<'_, L> {
    /// Columns `k + 1..n` of step `k`: the pivot row `u` (the live row or
    /// the next row of `H + jωT`, `hn` and `tn`, per lane) leaves
    /// `o − m·u` in the live row, where `o` is the other candidate, and
    /// `p − u·y[k]` in the pending right-hand side `p`.
    // Out of line on purpose, like `back_substitute`: as arguments the
    // slices cannot alias, so the compiler runs the lanes side by side in
    // vector registers and keeps the swap selects branch-free. Inlined into
    // the pass, both stayed scalar and the dim-4 TIA points ran 11% slower
    // (the `hessenberg_points_tia_dim4_lanes4` workload, best of 400 rounds).
    #[inline(never)]
    fn update(
        &self,
        row_re: &mut [[f64; L]],
        row_im: &mut [[f64; L]],
        p_re: &mut [[f64; L]],
        p_im: &mut [[f64; L]],
        hn: &[f64],
        tn: &[f64],
    ) {
        let Step {
            w,
            sw,
            m_re,
            m_im,
            y_re,
            y_im,
        } = self;
        let live = row_re.iter_mut().zip(row_im.iter_mut());
        let pending = p_re.iter_mut().zip(p_im.iter_mut());
        for (((r_re, r_im), (p_re, p_im)), (&x_re, &t)) in live.zip(pending).zip(hn.iter().zip(tn))
        {
            for i in 0..L {
                let x_im = w[i] * t;
                let u_re = select(sw[i], x_re, r_re[i]);
                let u_im = select(sw[i], x_im, r_im[i]);
                let o_re = select(sw[i], r_re[i], x_re);
                let o_im = select(sw[i], r_im[i], x_im);
                r_re[i] = o_re - (m_re[i] * u_re - m_im[i] * u_im);
                r_im[i] = o_im - (m_re[i] * u_im + m_im[i] * u_re);
                p_re[i] -= u_re * y_re[i] - u_im * y_im[i];
                p_im[i] -= u_re * y_im[i] + u_im * y_re[i];
            }
        }
    }
}

/// The backward pass `v = P0 M0ᵀ ... P(n-2) M(n-2)ᵀ y` over every lane:
/// undoes each step's multiplier and then its swap, last step first.
/// Out of line for the reason `Step::update` is.
#[inline(never)]
fn back_substitute<const L: usize>(
    v_re: &mut [[f64; L]],
    v_im: &mut [[f64; L]],
    l_re: &[[f64; L]],
    l_im: &[[f64; L]],
    swap: &[[u64; L]],
) {
    for k in (0..v_re.len().saturating_sub(1)).rev() {
        let (a_re, b_re) = v_re[k..k + 2].split_at_mut(1);
        let (a_im, b_im) = v_im[k..k + 2].split_at_mut(1);
        let (a_re, a_im, b_re, b_im) = (&mut a_re[0], &mut a_im[0], &mut b_re[0], &mut b_im[0]);
        for i in 0..L {
            let (lr, li, s) = (l_re[k][i], l_im[k][i], swap[k][i]);
            let t_re = a_re[i] - (lr * b_re[i] - li * b_im[i]);
            let t_im = a_im[i] - (lr * b_im[i] + li * b_re[i]);
            (a_re[i], b_re[i]) = (select(s, b_re[i], t_re), select(s, t_re, b_re[i]));
            (a_im[i], b_im[i]) = (select(s, b_im[i], t_im), select(s, t_im, b_im[i]));
        }
    }
}
