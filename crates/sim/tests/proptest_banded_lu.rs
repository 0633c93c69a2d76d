//! Property-based tests for the dense LU (`LuFactors`, the simulator's
//! one factorization backend) on banded systems. `LuFactors` tracks each
//! row's structural nonzeros (anything but exactly `+0.0`) and eliminates
//! over them only, so on a banded matrix it skips most of the work: that
//! sparse path must agree with the full elimination of the same values,
//! and a `refactor` through reused buffers must be bitwise equal to a
//! fresh factorization.

use autockt_sim::linalg::{LuFactors, Matrix};
use proptest::prelude::*;

/// A banded, symmetric, diagonally dominant matrix: nonsingular by
/// construction, with a column-dominant diagonal that keeps partial
/// pivoting on the natural pivots.
fn banded_dominant(n: usize, band: usize, entries: &[f64]) -> Matrix<f64> {
    let mut m = Matrix::zeros(n, n);
    let mut k = 0;
    for r in 0..n {
        for c in (r + 1)..n.min(r + band + 1) {
            let v = entries[k % entries.len()].clamp(-10.0, 10.0);
            k += 1;
            m[(r, c)] = v;
            m[(c, r)] = v;
        }
    }
    for r in 0..n {
        let rowsum: f64 = (0..n).filter(|&c| c != r).map(|c| m[(r, c)].abs()).sum();
        let sign = if entries[(k + r) % entries.len()] >= 0.0 {
            1.0
        } else {
            -1.0
        };
        m[(r, r)] = sign * (rowsum + 1.0);
    }
    m
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// On banded systems the sparse path (structural zeros skipped)
    /// matches the dense path: the same values with every off-band zero
    /// written as `-0.0`, which counts as structural and so runs the full
    /// elimination. Only the sign of a zero may differ, so the solutions
    /// compare equal, and both solve the system to solver tolerance.
    #[test]
    fn sparse_matches_dense_on_banded_systems(
        n in 2usize..24,
        band in 1usize..5,
        entries in prop::collection::vec(-10.0..10.0f64, 64),
        x in prop::collection::vec(-100.0..100.0f64, 24),
    ) {
        let a = banded_dominant(n, band, &entries);
        let mut full = a.clone();
        for r in 0..n {
            for c in 0..n {
                if full[(r, c)].to_bits() == 0 {
                    full[(r, c)] = -0.0;
                }
            }
        }
        let xt = &x[..n];
        let b = a.mul_vec(xt);
        let xs = LuFactors::factor(a, 1e-300).expect("dominant").solve(&b);
        let xd = LuFactors::factor(full, 1e-300).expect("dominant").solve(&b);
        prop_assert_eq!(&xs, &xd);
        for (s, t) in xs.iter().zip(xt) {
            prop_assert!((s - t).abs() <= 1e-7 * (1.0 + t.abs()), "{} vs {}", s, t);
        }
    }

    /// `refactor` through buffers last used by a larger, denser system
    /// and then by a same-pattern system is bitwise identical to a fresh
    /// `factor` of the new values.
    #[test]
    fn sparse_refactor_is_bitwise_equal_to_fresh_factor(
        n in 2usize..16,
        band in 1usize..4,
        ea in prop::collection::vec(-10.0..10.0f64, 64),
        eb in prop::collection::vec(-10.0..10.0f64, 64),
        b in prop::collection::vec(-100.0..100.0f64, 16),
    ) {
        let a1 = banded_dominant(n, band, &ea);
        // Same zero/nonzero structure, different values: scale `a1`'s
        // off-diagonals by a strictly positive factor and rebuild the
        // dominant diagonal.
        let mut a2 = a1.clone();
        for r in 0..n {
            for c in 0..n {
                if r != c && a2[(r, c)] != 0.0 {
                    a2[(r, c)] *= 1.0 + 0.05 * eb[(r * n + c) % eb.len()].abs();
                }
            }
        }
        for r in 0..n {
            let rowsum: f64 = (0..n).filter(|&c| c != r).map(|c| a2[(r, c)].abs()).sum();
            a2[(r, r)] = rowsum + 1.0;
        }
        let fresh = LuFactors::factor(a2.clone(), 1e-300).expect("dominant");
        let mut warm = LuFactors::factor(banded_dominant(n + 5, band + 2, &eb), 1e-300)
            .expect("dominant");
        warm.refactor(&a1, 1e-300).expect("dominant");
        warm.refactor(&a2, 1e-300).expect("dominant");
        let rhs = &b[..n];
        prop_assert_eq!(bits(&warm.solve(rhs)), bits(&fresh.solve(rhs)));
        warm.refactor_with(n, 1e-300, |m| m.copy_from(&a2)).expect("dominant");
        prop_assert_eq!(bits(&warm.solve(rhs)), bits(&fresh.solve(rhs)));
    }
}
