//! Property-based tests for the structural-analysis layer
//! (`linalg::structure`): maximum matching must compute the true
//! structural rank (== numeric rank for generic values), an emptied
//! column must be diagnosed by name, and the DC solve must report
//! parallel voltage sources as structurally singular before its homotopy.

use autockt_sim::dc::{dc_operating_point, DcOptions};
use autockt_sim::linalg::structure::{maximum_matching, structural_check};
use autockt_sim::linalg::Matrix;
use autockt_sim::netlist::{Circuit, GND};
use autockt_sim::SimError;
use proptest::prelude::*;

/// Builds an `n x n` pattern from `(slot -> (row, col))` picks, with
/// values chosen to be "generic": spread magnitudes, no structured
/// cancellation, so the numeric rank equals the structural rank with
/// probability 1.
fn random_pattern(n: usize, slots: &[usize], vals: &[f64]) -> Matrix<f64> {
    let mut m = Matrix::zeros(n, n);
    for (i, &s) in slots.iter().enumerate() {
        // Strictly positive, spread over two decades, perturbed per slot:
        // duplicate (r, c) picks merge additively and stay nonzero.
        let v = (1.0 + vals[i % vals.len()].abs()) * (1.0 + 0.01 * i as f64);
        m[(s / n % n, s % n)] += v;
    }
    m
}

/// Numeric rank of a copy via complete-pivoting Gaussian elimination.
/// Complete pivoting keeps the growth factor tame, so at these sizes a
/// relative threshold cleanly separates "zero by structure" from
/// roundoff.
#[allow(clippy::needless_range_loop)] // index pairs mirror the math
fn numeric_rank(a: &Matrix<f64>) -> usize {
    let n = a.rows();
    let mut m: Vec<Vec<f64>> = (0..n)
        .map(|r| (0..n).map(|c| a[(r, c)]).collect())
        .collect();
    let scale: f64 = m
        .iter()
        .flatten()
        .fold(0.0f64, |acc, v| acc.max(v.abs()))
        .max(1.0);
    let mut rank = 0;
    for step in 0..n {
        let mut best = (step, step, 0.0f64);
        for r in step..n {
            for c in step..n {
                if m[r][c].abs() > best.2 {
                    best = (r, c, m[r][c].abs());
                }
            }
        }
        if best.2 <= 1e-10 * scale {
            break;
        }
        m.swap(step, best.0);
        for row in m.iter_mut() {
            row.swap(step, best.1);
        }
        rank += 1;
        let piv = m[step][step];
        for r in (step + 1)..n {
            let f = m[r][step] / piv;
            for c in step..n {
                let upd = f * m[step][c];
                m[r][c] -= upd;
            }
        }
    }
    rank
}

/// A diagonally dominant matrix over a random sparsity pattern with a
/// full diagonal: structurally and numerically nonsingular.
fn dominant_on_pattern(n: usize, slots: &[usize], vals: &[f64]) -> Matrix<f64> {
    let mut m = Matrix::zeros(n, n);
    for (i, &s) in slots.iter().enumerate() {
        let (r, c) = (s / n % n, s % n);
        if r != c {
            m[(r, c)] = vals[i % vals.len()].clamp(-10.0, 10.0);
        }
    }
    for r in 0..n {
        let rowsum: f64 = (0..n).map(|c| m[(r, c)].abs()).sum();
        m[(r, r)] = rowsum + 1.0;
    }
    m
}

proptest! {
    /// The matching size equals the numeric rank of the pattern filled
    /// with generic values: the matching is neither optimistic (it never
    /// exceeds any achievable numeric rank) nor pessimistic (generic
    /// values achieve it).
    #[test]
    fn structural_rank_equals_generic_numeric_rank(
        n in 1usize..10,
        slots in prop::collection::vec(0usize..100, 0..40),
        vals in prop::collection::vec(-10.0..10.0f64, 40),
    ) {
        let a = random_pattern(n, &slots, &vals);
        let match_row = maximum_matching(&a);
        let rank = match_row.iter().flatten().count();
        prop_assert_eq!(rank, numeric_rank(&a));
        // The matching itself must be consistent: matched rows distinct,
        // each matched row actually present in its column's pattern.
        let mut used = vec![false; n];
        let mut counted = 0;
        for (j, r) in match_row.iter().enumerate() {
            let Some(r) = *r else {
                continue;
            };
            counted += 1;
            prop_assert!(r < n && !used[r], "row matched twice");
            used[r] = true;
            prop_assert!(a[(r, j)].to_bits() != 0, "matched row not in column pattern");
        }
        prop_assert_eq!(counted, rank);
    }

    /// Deleting a column's every entry from a full-rank pattern drops the
    /// structural rank, and `structural_check` names that exact column.
    #[test]
    fn emptied_column_is_diagnosed_by_name(
        n in 2usize..10,
        victim in 0usize..10,
        slots in prop::collection::vec(0usize..100, 0..40),
        vals in prop::collection::vec(-10.0..10.0f64, 40),
    ) {
        let victim = victim % n;
        let mut a = dominant_on_pattern(n, &slots, &vals);
        for r in 0..n {
            a[(r, victim)] = 0.0;
        }
        match structural_check(&a) {
            Err(SimError::StructurallySingular { column, structural_rank, dim }) => {
                prop_assert_eq!(column, victim);
                prop_assert_eq!(structural_rank, n - 1);
                prop_assert_eq!(dim, n);
            }
            other => prop_assert!(false, "expected StructurallySingular, got {other:?}"),
        }
    }
}

/// Two voltage sources in parallel from one node to ground: both branch
/// columns hold entries only in that node's row, and gmin stamps node
/// columns alone, so the Jacobian is structurally singular at every gmin
/// value. The DC solve must diagnose it as
/// [`SimError::StructurallySingular`] naming the second branch column:
/// the diagnosis comes out of the pattern of the first singular Jacobian,
/// before the gmin homotopy, not from a numeric pivot failure
/// (`SingularMatrix`) after the homotopy.
#[test]
fn parallel_sources_fail_structural_preflight_before_newton() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.vsource(a, GND, 1.0, 0.0);
    ckt.vsource(a, GND, 1.0, 0.0);
    match dc_operating_point(&ckt, &DcOptions::default()) {
        Err(SimError::StructurallySingular {
            column,
            structural_rank,
            dim,
        }) => {
            // Unknowns: v(a), then the two branch currents.
            assert_eq!(dim, 3);
            assert_eq!(column, 2, "diagnosis must name the second branch");
            assert_eq!(structural_rank, dim - 1);
        }
        other => panic!("expected StructurallySingular, got {other:?}"),
    }
    // One source alone solves: the check never rejects a pattern the
    // factorization could handle.
    let mut single = Circuit::new();
    let a = single.node("a");
    single.vsource(a, GND, 1.0, 0.0);
    let op = dc_operating_point(&single, &DcOptions::default()).expect("one source solves");
    assert!(op.iterations() >= 1);
}
