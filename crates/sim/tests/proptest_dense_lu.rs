//! Equivalence properties for the structure-aware dense LU: factoring and
//! solving through `LuFactors` must give the *bitwise* results of a plain
//! dense partial-pivoting elimination that visits every entry — the same
//! solution bits (`to_bits`, sign of zero included, NaN payloads aside)
//! and the same `SingularMatrix { column }` errors — for real and complex
//! systems, for `A x = b` and for the transposed `Aᵀ x = b`.
//!
//! The reference below is the dense kernel `LuFactors` ran before it
//! tracked structure (`eliminate`, `solve_into`), and the transposed
//! kernel's sweeps over every entry (`solve_transposed_into`), copied
//! unchanged apart from living on a test-local struct; the transposed
//! sweeps divide by the pivot where the kernel applies its prepared
//! divisor, the same bits by the `Scalar::pivot_divisor` contract.
//!
//! Inputs cover dimensions 1–150 (one, two and three 64-bit pattern
//! words), densities from 3% to full, banded systems (bandwidth 1–4,
//! dominant diagonal), MNA-like shapes (voltage-source rows with a zero
//! diagonal, empty rows), real-valued complex stamps (whose products
//! create signed zeros), `-0.0` entries and right-hand sides, entries near
//! `f64::MAX` whose updates overflow, and non-finite entries.

use autockt_sim::complex::Complex;
use autockt_sim::linalg::{LuFactors, Matrix, Scalar};
use autockt_sim::SimError;
use proptest::prelude::*;

/// The dense reference: row-major `n x n` factors plus the permutation.
struct RefLu<T> {
    n: usize,
    data: Vec<T>,
    perm: Vec<usize>,
}

impl<T: Scalar> RefLu<T> {
    fn factor(m: &Matrix<T>, pivot_floor: f64) -> Result<Self, SimError> {
        let n = m.rows();
        let mut data = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                data.push(m[(r, c)]);
            }
        }
        let mut f = RefLu {
            n,
            data,
            perm: Vec::new(),
        };
        f.eliminate(pivot_floor)?;
        Ok(f)
    }

    fn eliminate(&mut self, pivot_floor: f64) -> Result<(), SimError> {
        let n = self.n;
        let perm = &mut self.perm;
        perm.clear();
        perm.extend(0..n);
        let data = &mut self.data;
        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k.
            let mut p = k;
            let mut best = data[k * n + k].abs();
            for i in (k + 1)..n {
                let v = data[i * n + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best <= pivot_floor || !best.is_finite() {
                return Err(SimError::SingularMatrix { column: k });
            }
            if p != k {
                let (lo, hi) = data.split_at_mut(p * n);
                lo[k * n..(k + 1) * n].swap_with_slice(&mut hi[..n]);
                perm.swap(k, p);
            }
            // Row elimination over contiguous slices: the bounds checks of
            // per-element `(i, c)` indexing dominate this kernel otherwise.
            let pivot = data[k * n + k];
            let (top, bottom) = data.split_at_mut((k + 1) * n);
            let row_k = &top[k * n + k + 1..];
            for row_i in bottom.chunks_exact_mut(n) {
                let m = row_i[k] / pivot;
                row_i[k] = m;
                for (x, &y) in row_i[k + 1..].iter_mut().zip(row_k) {
                    let v = m * y;
                    *x -= v;
                }
            }
        }
        Ok(())
    }

    fn solve_into(&self, b: &[T], x: &mut Vec<T>) {
        let n = self.n;
        assert_eq!(b.len(), n, "dimension mismatch");
        // Apply permutation.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        let data = &self.data;
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let row = &data[i * n..i * n + i];
            let mut acc = x[i];
            for (l, &xj) in row.iter().zip(x.iter()) {
                acc -= *l * xj;
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let row = &data[i * n..(i + 1) * n];
            let mut acc = x[i];
            for (j, l) in row.iter().enumerate().skip(i + 1) {
                acc -= *l * x[j];
            }
            x[i] = acc / row[i];
        }
    }

    /// `Aᵀ x = b`: `Uᵀ` forward, `Lᵀ` back, then the inverse row
    /// permutation, each sweep over every entry.
    fn solve_transposed_into(&self, b: &[T], x: &mut Vec<T>) {
        let n = self.n;
        assert_eq!(b.len(), n, "dimension mismatch");
        let data = &self.data;
        // The sweeps run in `x[n..]`; the permutation then writes `x[..n]`.
        x.clear();
        x.resize(n, T::zero());
        x.extend_from_slice(b);
        let (out, v) = x.split_at_mut(n);
        // Uᵀ w = b, forward.
        for i in 0..n {
            let wi = v[i] / data[i * n + i];
            v[i] = wi;
            let row = &data[i * n..(i + 1) * n];
            for j in i + 1..n {
                let u = row[j] * wi;
                v[j] -= u;
            }
        }
        for vi in v.iter_mut() {
            *vi += T::zero();
        }
        // Lᵀ y = w, backward (L has unit diagonal).
        for i in (1..n).rev() {
            let yi = v[i];
            let row = &data[i * n..i * n + i];
            for (j, &l) in row.iter().enumerate() {
                let u = l * yi;
                v[j] -= u;
            }
        }
        // x = Pᵀ y.
        for (&p, &yi) in self.perm.iter().zip(v.iter()) {
            out[p] = yi;
        }
        x.truncate(n);
    }
}

/// SplitMix64 stream: the properties draw one seed and derive every
/// matrix entry from it.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, k: usize) -> usize {
        (self.next() % k as u64) as usize
    }

    /// A value of one of the classes the kernels must agree on: mostly
    /// ordinary magnitudes, sometimes an exact (signed) zero, rarely a
    /// value near `f64::MAX` whose elimination overflows, or a non-finite
    /// one.
    fn value(&mut self, extremes: bool) -> f64 {
        let r = self.unit();
        if extremes && r < 0.02 {
            return if self.unit() < 0.5 { -0.0 } else { 0.0 };
        }
        if extremes && r < 0.035 {
            return 1.7e308 * (2.0 * self.unit() - 1.0);
        }
        if extremes && r < 0.037 {
            return [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][self.below(3)];
        }
        20.0 * (self.unit() - 0.5)
    }
}

/// How one generated system is laid out.
struct Shape {
    n: usize,
    density: f64,
    /// Rows that mimic a voltage source's branch equation: two ±1 entries
    /// and a zero diagonal.
    source_rows: usize,
    /// Rows left entirely empty (the system is then singular).
    empty_rows: usize,
    /// Complex stamps with a `+0.0` imaginary part, like conductances.
    real_stamps: bool,
    extremes: bool,
    /// A banded system of this bandwidth, every in-band entry present and
    /// the diagonal dominant, in place of `density`, source and empty rows.
    band: Option<usize>,
}

impl Shape {
    fn draw(g: &mut Gen, max_n: usize) -> Shape {
        let n = 1 + g.below(max_n);
        let density = 0.03 + 0.97 * g.unit() * g.unit();
        let mut s = Shape {
            n,
            density,
            source_rows: if g.unit() < 0.5 {
                g.below(n.div_ceil(4) + 1)
            } else {
                0
            },
            empty_rows: usize::from(g.unit() < 0.1),
            real_stamps: g.unit() < 0.5,
            extremes: g.unit() < 0.3,
            band: None,
        };
        if g.unit() < 0.2 {
            s.band = Some(1 + g.below(4));
            (s.source_rows, s.empty_rows) = (0, 0);
        }
        s
    }
}

/// Builds a system with the given shape; entries come from `entry(g,
/// real_stamp, extremes)` and the diagonal from `diag(g, magnitude)`. The
/// diagonal is usually present and dominant enough to keep most systems
/// solvable, as MNA conductance diagonals are; a banded system's diagonal
/// is always present and exceeds its row's off-diagonal magnitudes.
fn build<T: Scalar>(
    g: &mut Gen,
    s: &Shape,
    entry: impl Fn(&mut Gen, bool, bool) -> T,
    diag: impl Fn(&mut Gen, f64) -> T,
) -> Matrix<T> {
    let n = s.n;
    let mut m = Matrix::<T>::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            let present = |g: &mut Gen| match s.band {
                Some(band) => r.abs_diff(c) <= band,
                None => g.unit() < s.density,
            };
            if r != c && present(g) {
                m[(r, c)] = entry(g, s.real_stamps, s.extremes);
            }
        }
        if s.band.is_some() {
            let d = 1.0 + (0..n).map(|c| m[(r, c)].abs()).sum::<f64>();
            m[(r, r)] = diag(g, d);
        } else if g.unit() < 0.9 {
            let d = 5.0 + 20.0 * g.unit();
            m[(r, r)] = diag(g, d);
        }
    }
    for _ in 0..s.source_rows {
        let r = g.below(n);
        for c in 0..n {
            m[(r, c)] = T::zero();
        }
        let (p, q) = (g.below(n), g.below(n));
        if p != r {
            m[(r, p)] = T::one();
        }
        if q != r && q != p {
            m[(r, q)] = -T::one();
        }
    }
    for _ in 0..s.empty_rows {
        let r = g.below(n);
        for c in 0..n {
            m[(r, c)] = T::zero();
        }
    }
    m
}

fn real_system(g: &mut Gen, max_n: usize) -> (Matrix<f64>, Vec<f64>) {
    let s = Shape::draw(g, max_n);
    let m = build(
        g,
        &s,
        |g, _, ext| g.value(ext),
        |g, d| if g.unit() < 0.5 { d } else { -d },
    );
    let b = (0..s.n * 3).map(|_| g.value(true)).collect();
    (m, b)
}

fn complex_system(g: &mut Gen, max_n: usize) -> (Matrix<Complex>, Vec<Complex>) {
    let s = Shape::draw(g, max_n);
    let m = build(
        g,
        &s,
        |g, real, ext| {
            let re = g.value(ext);
            Complex::new(re, if real { 0.0 } else { g.value(ext) })
        },
        |g, d| Complex::new(if g.unit() < 0.5 { d } else { -d }, g.value(false)),
    );
    let b = (0..s.n * 3)
        .map(|_| {
            let re = g.value(true);
            Complex::new(re, if g.unit() < 0.3 { 0.0 } else { g.value(true) })
        })
        .collect();
    (m, b)
}

/// Component bits of a solution, so `-0.0` and `+0.0` differ. NaNs map to
/// one value: Rust leaves the sign and payload of a NaN produced by
/// arithmetic unspecified (the compiler may swap the operands of a
/// multiply), so no kernel can promise them.
fn bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

trait Bits {
    fn bits(&self) -> Vec<u64>;
}

impl Bits for [f64] {
    fn bits(&self) -> Vec<u64> {
        self.iter().map(|&v| bits(v)).collect()
    }
}

impl Bits for [Complex] {
    fn bits(&self) -> Vec<u64> {
        self.iter().flat_map(|v| [bits(v.re), bits(v.im)]).collect()
    }
}

/// Factors `m` both ways and compares errors and single solves, plain and
/// transposed, of the three right-hand sides packed in `b`.
fn check<T: Scalar>(m: &Matrix<T>, b: &[T]) -> Result<(), String>
where
    [T]: Bits,
{
    let n = m.rows();
    let reference = RefLu::factor(m, 1e-300);
    let mut lu = LuFactors::<T>::empty();
    let got = lu.refactor(m, 1e-300);
    let reference = match (reference, got) {
        (Ok(r), Ok(())) => r,
        (Err(e), Err(f)) if e == f => return Ok(()),
        (r, g) => return Err(format!("dim {n}: reference {:?} vs kernel {g:?}", r.err())),
    };
    let (mut xr, mut xk) = (Vec::new(), Vec::new());
    for rhs in b.chunks_exact(n) {
        reference.solve_into(rhs, &mut xr);
        lu.solve_into(rhs, &mut xk);
        if xr.bits() != xk.bits() {
            return Err(format!("dim {n}: solve differs: {xr:?} vs {xk:?}"));
        }
        reference.solve_transposed_into(rhs, &mut xr);
        lu.solve_transposed_into(rhs, &mut xk);
        if xr.bits() != xk.bits() {
            return Err(format!(
                "dim {n}: transposed solve differs: {xr:?} vs {xk:?}"
            ));
        }
    }
    Ok(())
}

/// Step 0 overflows the pivot row of step 1 to `+inf`; the last row has
/// no entry in column 1, so the dense elimination computes `1 - 0 * inf`
/// there — NaN, a singular last column — where skipping the update would
/// leave a clean `1`.
#[test]
fn overflowed_pivot_row_matches_dense_reference() {
    let m = Matrix::from_rows(&[
        vec![1.0, 0.0, -1.5e308],
        vec![1.0, 1.0, 1.5e308],
        vec![0.0, 0.0, 1.0],
    ]);
    assert!(matches!(
        RefLu::factor(&m, 1e-300),
        Err(SimError::SingularMatrix { column: 2 })
    ));
    let r = check(&m, &[1.0, 2.0, 3.0, 0.5, 0.0, -1.0, 4.0, 4.0, 4.0]);
    assert!(r.is_ok(), "{}", r.unwrap_err());
}

proptest! {
    /// `abs_gt` decides exactly as comparing `hypot`s: for magnitudes
    /// equal up to rounding (a point and its rotation), nearly equal ones,
    /// and magnitudes around the edges of the squared norm's normal range,
    /// where the fast path must step aside.
    #[test]
    fn complex_abs_gt_matches_hypot_comparison(
        r in 0.0..1.0f64,
        theta in 0.0..6.3f64,
        dtheta in -1e-6..1e-6f64,
        rel in -1e-12..1e-12f64,
    ) {
        for scale in [-320, -161, -160, -155, -150, 0, 150, 154, 155, 200] {
            for exact in [true, false] {
                let mag = (1.0 + r) * 10f64.powi(scale);
                let a = Complex::new(mag * theta.cos(), mag * theta.sin());
                let mag_b = if exact { mag } else { mag * (1.0 + rel) };
                let t = theta + dtheta;
                let b = Complex::new(mag_b * t.cos(), mag_b * t.sin());
                prop_assert_eq!(a.abs_gt(b), a.norm() > b.norm(), "{} vs {}", a, b);
                prop_assert_eq!(b.abs_gt(a), b.norm() > a.norm(), "{} vs {}", b, a);
                prop_assert!(!a.abs_gt(a));
            }
        }
    }

    #[test]
    fn real_lu_matches_dense_reference_small(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for _ in 0..8 {
            let (m, b) = real_system(&mut g, 24);
            let r = check(&m, &b);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }

    #[test]
    fn complex_lu_matches_dense_reference_small(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for _ in 0..8 {
            let (m, b) = complex_system(&mut g, 24);
            let r = check(&m, &b);
            prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        }
    }

    #[test]
    fn real_lu_matches_dense_reference_multiword(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (m, b) = real_system(&mut g, 150);
        let r = check(&m, &b);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn complex_lu_matches_dense_reference_multiword(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (m, b) = complex_system(&mut g, 150);
        let r = check(&m, &b);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Refactoring one buffer through systems of changing dimension and
    /// pattern (the DC Newton and AC sweep reuse) must not leak the
    /// previous system's structure.
    #[test]
    fn refactor_across_systems_matches_fresh_reference(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let mut lu = LuFactors::<Complex>::empty();
        for _ in 0..6 {
            let (m, b) = complex_system(&mut g, 80);
            let n = m.rows();
            let got = lu.refactor_with(n, 1e-300, |dst| {
                for r in 0..n {
                    for c in 0..n {
                        dst[(r, c)] = m[(r, c)];
                    }
                }
            });
            match (RefLu::factor(&m, 1e-300), got) {
                (Ok(reference), Ok(())) => {
                    let (mut xr, mut xk) = (Vec::new(), Vec::new());
                    reference.solve_into(&b[..n], &mut xr);
                    lu.solve_into(&b[..n], &mut xk);
                    prop_assert_eq!(xr.bits(), xk.bits());
                }
                (Err(e), Err(f)) => prop_assert_eq!(e, f),
                (r, k) => prop_assert!(false, "reference {:?} vs kernel {k:?}", r.err()),
            }
        }
    }
}
