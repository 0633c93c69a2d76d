//! Static structural analysis of MNA sparsity patterns: maximum
//! bipartite matching and the structural-rank check built on it.
//!
//! Everything here reads only the *pattern* of a square dense matrix, by
//! the rule [`super::LuFactors`] tracks fill with: an entry is structural
//! unless it is exactly `+0.0`. The values themselves are never used.
//! [`maximum_matching`] pairs each column with a distinct row holding one
//! of its structural entries (Kuhn's augmenting-path algorithm). The
//! matching size is the **structural rank**: an upper bound on the
//! numeric rank that holds for *every* assignment of values. A column
//! left unmatched can never be eliminated, so [`structural_check`]
//! reports it as [`SimError::StructurallySingular`].
//!
//! The DC solve runs the check on the Jacobian a cold Newton iteration
//! failed to factor: voltage sources in parallel or in a loop, whose
//! branch columns gmin never touches, are then diagnosed by column,
//! before the gmin homotopy, which cannot repair a topology. The
//! successful solve path never runs it.

use super::{Matrix, Scalar};
use crate::error::SimError;

/// Maximum bipartite matching between the columns and rows of the
/// pattern of the square matrix `m`, via Kuhn's augmenting-path
/// algorithm.
///
/// Returns the row matched to each column, or `None` for a structurally
/// deficient column; the number of matched columns is the structural rank
/// of the pattern. Deterministic: columns are processed in ascending
/// order and each column's candidate rows in ascending order, so the same
/// pattern always yields the same matching.
///
/// Worst case `O(n³)` entry reads, which is comfortable at the dimensions
/// of extracted MNA meshes; typical MNA patterns (every node column
/// carries its gmin/diagonal stamp) match almost entirely in the first
/// greedy pass.
pub fn maximum_matching(m: &Matrix<f64>) -> Vec<Option<usize>> {
    let n = m.rows();
    // Column -> row and row -> column.
    let mut match_row = vec![None; n];
    let mut match_col = vec![None; n];
    // Stamp-based visited marks: O(1) clear per augmentation attempt.
    let mut visited = vec![0usize; n];
    for j in 0..n {
        augment(m, j, &mut match_row, &mut match_col, &mut visited, j + 1);
    }
    match_row
}

/// One augmenting-path DFS from column `j`: claims a free row or
/// recursively re-routes the column currently holding one. Recursion
/// depth is bounded by the augmenting path length (at most `n`), which is
/// fine at MNA scale.
fn augment(
    m: &Matrix<f64>,
    j: usize,
    match_row: &mut [Option<usize>],
    match_col: &mut [Option<usize>],
    visited: &mut [usize],
    stamp: usize,
) -> bool {
    for i in 0..m.rows() {
        if m[(i, j)].is_pos_zero() || visited[i] == stamp {
            continue;
        }
        visited[i] = stamp;
        let free = match match_col[i] {
            None => true,
            Some(owner) => augment(m, owner, match_row, match_col, visited, stamp),
        };
        if free {
            match_col[i] = Some(j);
            match_row[j] = Some(i);
            return true;
        }
    }
    false
}

/// Structural check: verifies the pattern of the square matrix `m` has
/// full structural rank.
///
/// # Errors
///
/// [`SimError::StructurallySingular`] naming the first unmatched column,
/// the structural rank, and the dimension.
pub fn structural_check(m: &Matrix<f64>) -> Result<(), SimError> {
    let match_row = maximum_matching(m);
    match match_row.iter().position(Option::is_none) {
        None => Ok(()),
        Some(column) => Err(SimError::StructurallySingular {
            column,
            structural_rank: match_row.iter().flatten().count(),
            dim: m.rows(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::LuFactors;

    /// An `n x n` matrix with a `1.0` at each `(row, col)` entry.
    fn pattern(n: usize, entries: &[(usize, usize)]) -> Matrix<f64> {
        let mut m = Matrix::zeros(n, n);
        for &(r, c) in entries {
            m[(r, c)] = 1.0;
        }
        m
    }

    #[test]
    fn matching_full_rank_on_diagonal() {
        let m = pattern(2, &[(0, 0), (0, 1), (1, 1)]);
        assert_eq!(maximum_matching(&m), vec![Some(0), Some(1)]);
    }

    #[test]
    fn matching_detects_empty_column() {
        // Column 2 has no structural entries at all.
        let m = pattern(3, &[(0, 0), (1, 1), (2, 1)]);
        let match_row = maximum_matching(&m);
        assert_eq!(match_row.iter().flatten().count(), 2);
        assert_eq!(match_row[2], None);
        match structural_check(&m) {
            Err(SimError::StructurallySingular {
                column,
                structural_rank,
                dim,
            }) => {
                assert_eq!(column, 2);
                assert_eq!(structural_rank, 2);
                assert_eq!(dim, 3);
            }
            other => panic!("expected StructurallySingular, got {other:?}"),
        }
    }

    #[test]
    fn matching_needs_augmentation() {
        // Columns 0 and 1 both only reach row 0 and row 1, column 2 only
        // row 0: structurally rank 2 no matter the greedy choices.
        let m = pattern(3, &[(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]);
        assert_eq!(maximum_matching(&m).iter().flatten().count(), 2);
    }

    #[test]
    fn dense_check_treats_only_positive_zero_as_empty() {
        // Column 1 holds only `+0.0` entries: structurally empty.
        let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0]]);
        assert!(matches!(
            structural_check(&m),
            Err(SimError::StructurallySingular {
                column: 1,
                structural_rank: 1,
                dim: 2,
            })
        ));
        // A `-0.0` entry counts as structural, as in the LU's fill rule.
        let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -0.0]]);
        assert!(structural_check(&m).is_ok());
    }

    #[test]
    fn empty_column_is_named_after_every_failed_refactor() {
        // A factorization reused across Newton iterations: a good matrix,
        // then one with an empty column. The LU fails numerically and the
        // structural check names the empty column on every attempt, so the
        // reused buffers never absorb the failing pattern.
        let good = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let bad = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0]]);
        let mut lu = LuFactors::empty();
        for _ in 0..2 {
            lu.refactor(&good, 1e-300).expect("regular");
            assert!(matches!(
                lu.refactor(&bad, 1e-300),
                Err(SimError::SingularMatrix { .. })
            ));
            match structural_check(&bad) {
                Err(SimError::StructurallySingular { column, .. }) => assert_eq!(column, 1),
                other => panic!("expected StructurallySingular, got {other:?}"),
            }
        }
    }

    #[test]
    fn numerically_singular_full_pattern_passes_and_lu_names_its_column() {
        // Structurally fine, numerically singular: rows 1 and 2 are equal
        // in the {1,2} block. The structural check passes, so the LU's
        // numeric diagnosis stands, naming the block's last column.
        let m = Matrix::from_rows(&[
            vec![3.0, 0.5, 0.0],
            vec![0.0, 1.0, 2.0],
            vec![0.0, 1.0, 2.0],
        ]);
        assert!(structural_check(&m).is_ok());
        match LuFactors::factor(m, 1e-300).err() {
            Some(SimError::SingularMatrix { column }) => assert_eq!(column, 2),
            other => panic!("expected SingularMatrix, got {other:?}"),
        }
    }
}
