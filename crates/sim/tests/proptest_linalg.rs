//! Property-based tests for the linear-algebra kernel: LU solves must
//! invert `mul_vec` for any well-conditioned system, real or complex.

use autockt_sim::complex::Complex;
use autockt_sim::linalg::{solve, Matrix};
use proptest::prelude::*;

/// Builds a diagonally dominant matrix from arbitrary entries — guaranteed
/// nonsingular, so the roundtrip property is well-posed.
fn dominant_from(entries: Vec<f64>, n: usize) -> Matrix<f64> {
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        let mut rowsum = 0.0;
        for c in 0..n {
            if r != c {
                let v = entries[r * n + c].clamp(-10.0, 10.0);
                m[(r, c)] = v;
                rowsum += v.abs();
            }
        }
        let sign = if entries[r * n + r] >= 0.0 { 1.0 } else { -1.0 };
        m[(r, r)] = sign * (rowsum + 1.0 + entries[r * n + r].abs().clamp(0.0, 10.0));
    }
    m
}

proptest! {
    #[test]
    fn lu_roundtrip_real(
        n in 1usize..8,
        entries in prop::collection::vec(-10.0..10.0f64, 64),
        x in prop::collection::vec(-100.0..100.0f64, 8),
    ) {
        let a = dominant_from(entries, n);
        let xt = &x[..n];
        let b = a.mul_vec(xt);
        let got = solve(a, &b).expect("dominant matrix is nonsingular");
        for (g, t) in got.iter().zip(xt) {
            prop_assert!((g - t).abs() < 1e-7 * (1.0 + t.abs()), "{g} vs {t}");
        }
    }

    #[test]
    fn lu_roundtrip_complex(
        n in 1usize..6,
        re in prop::collection::vec(-5.0..5.0f64, 36),
        im in prop::collection::vec(-5.0..5.0f64, 36),
        xre in prop::collection::vec(-10.0..10.0f64, 6),
    ) {
        let mut a = Matrix::<Complex>::zeros(n, n);
        for r in 0..n {
            let mut rowsum = 0.0;
            for c in 0..n {
                if r != c {
                    let v = Complex::new(re[r * n + c], im[r * n + c]);
                    a[(r, c)] = v;
                    rowsum += v.norm();
                }
            }
            a[(r, r)] = Complex::new(rowsum + 1.0, im[r * n + r]);
        }
        let xt: Vec<Complex> = xre[..n].iter().map(|v| Complex::new(*v, -v * 0.5)).collect();
        let b = a.mul_vec(&xt);
        let got = solve(a, &b).expect("dominant complex matrix");
        for (g, t) in got.iter().zip(&xt) {
            prop_assert!((*g - *t).norm() < 1e-7 * (1.0 + t.norm()));
        }
    }

    #[test]
    fn complex_field_axioms(
        ar in -100.0..100.0f64, ai in -100.0..100.0f64,
        br in -100.0..100.0f64, bi in -100.0..100.0f64,
    ) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        // Commutativity.
        let d1 = a * b - b * a;
        prop_assert!(d1.norm() < 1e-9);
        // |ab| = |a||b| up to rounding.
        prop_assert!(((a * b).norm() - a.norm() * b.norm()).abs() < 1e-6 * (1.0 + a.norm() * b.norm()));
        // Conjugate product is the squared norm.
        let c = a * a.conj();
        prop_assert!((c.re - a.norm_sqr()).abs() < 1e-9 * (1.0 + a.norm_sqr()));
        prop_assert!(c.im.abs() < 1e-9 * (1.0 + a.norm_sqr()));
    }
}
