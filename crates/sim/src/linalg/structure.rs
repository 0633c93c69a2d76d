//! Static structural analysis of MNA sparsity patterns: maximum
//! bipartite matching and the structural-rank check built on it.
//!
//! Everything here runs purely on a compressed-column *pattern* — the
//! `col_ptr`/`row_idx` slices — never the values. [`maximum_matching`]
//! pairs each column with a distinct row holding one of its structural
//! nonzeros (Kuhn's augmenting-path algorithm). The matching size is the
//! **structural rank**: an upper bound on the numeric rank that holds for
//! *every* assignment of values. A column left unmatched can never be
//! eliminated, so [`structural_check`] reports it as
//! [`SimError::StructurallySingular`].
//!
//! The DC solve runs the check on the Jacobian a cold Newton iteration
//! failed to factor ([`check_dense`]): voltage sources in parallel or in
//! a loop, whose branch columns gmin never touches, are then diagnosed by
//! column, before the gmin homotopy, which cannot repair a topology. The
//! successful solve path never runs it.

use super::{Matrix, Scalar};
use crate::error::SimError;

/// Sentinel for "no partner" in matching vectors.
pub const UNMATCHED: usize = usize::MAX;

/// Maximum bipartite matching between the columns and rows of an
/// `n x n` sparsity pattern, via Kuhn's augmenting-path algorithm.
///
/// Returns `(rank, match_row)` where `rank` is the matching size (the
/// structural rank of the pattern) and `match_row[j]` is the row matched
/// to column `j`, or [`UNMATCHED`] for a structurally deficient column.
/// Deterministic: columns are processed in ascending order and each
/// column's candidate rows in stored (ascending) order, so the same
/// pattern always yields the same matching.
///
/// Worst case `O(n * nnz)`, which is comfortable at the dimensions of
/// extracted MNA meshes; typical MNA patterns (every node
/// column carries its gmin/diagonal stamp) match almost entirely in the
/// first greedy pass.
pub fn maximum_matching(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> (usize, Vec<usize>) {
    let mut match_row = vec![UNMATCHED; n]; // column -> row
    let mut match_col = vec![UNMATCHED; n]; // row -> column
                                            // Stamp-based visited marks: O(1) clear per augmentation attempt.
    let mut visited = vec![0usize; n];
    let mut rank = 0usize;
    for j in 0..n {
        let stamp = j + 1;
        if augment(
            j,
            col_ptr,
            row_idx,
            &mut match_row,
            &mut match_col,
            &mut visited,
            stamp,
        ) {
            rank += 1;
        }
    }
    (rank, match_row)
}

/// One augmenting-path DFS from column `j`: claims a free row or
/// recursively re-routes the column currently holding one. Recursion
/// depth is bounded by the augmenting path length (at most `n`), which is
/// fine at MNA scale.
fn augment(
    j: usize,
    col_ptr: &[usize],
    row_idx: &[usize],
    match_row: &mut [usize],
    match_col: &mut [usize],
    visited: &mut [usize],
    stamp: usize,
) -> bool {
    for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
        if visited[i] == stamp {
            continue;
        }
        visited[i] = stamp;
        let owner = match_col[i];
        if owner == UNMATCHED
            || augment(
                owner, col_ptr, row_idx, match_row, match_col, visited, stamp,
            )
        {
            match_col[i] = j;
            match_row[j] = i;
            return true;
        }
    }
    false
}

/// Structural check: verifies the pattern has full structural rank.
///
/// # Errors
///
/// [`SimError::StructurallySingular`] naming the first unmatched column
/// (original numbering), the structural rank, and the dimension.
pub fn structural_check(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Result<(), SimError> {
    let (rank, match_row) = maximum_matching(n, col_ptr, row_idx);
    if rank < n {
        let column = match_row
            .iter()
            .position(|&r| r == UNMATCHED)
            .unwrap_or(n - 1);
        return Err(SimError::StructurallySingular {
            column,
            structural_rank: rank,
            dim: n,
        });
    }
    Ok(())
}

/// [`structural_check`] on the pattern of a dense matrix, where an entry
/// is structural unless it is exactly `+0.0` — the rule [`super::LuFactors`]
/// tracks fill with. Columns are scanned in order, rows ascending.
///
/// # Errors
///
/// Same contract as [`structural_check`].
pub fn check_dense(m: &Matrix<f64>) -> Result<(), SimError> {
    let n = m.rows();
    let mut col_ptr = Vec::with_capacity(n + 1);
    let mut row_idx = Vec::new();
    col_ptr.push(0);
    for c in 0..n {
        row_idx.extend((0..n).filter(|&r| !m[(r, c)].is_pos_zero()));
        col_ptr.push(row_idx.len());
    }
    structural_check(n, &col_ptr, &row_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::LuFactors;

    /// Compressed-column pattern of `(row, col)` entries in an `n x n`
    /// system.
    fn pattern(n: usize, entries: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
        let mut col_ptr = vec![0];
        let mut row_idx = Vec::new();
        for c in 0..n {
            let mut rows: Vec<usize> = entries.iter().filter(|e| e.1 == c).map(|e| e.0).collect();
            rows.sort_unstable();
            rows.dedup();
            row_idx.extend(rows);
            col_ptr.push(row_idx.len());
        }
        (col_ptr, row_idx)
    }

    #[test]
    fn matching_full_rank_on_diagonal() {
        let (cp, ri) = pattern(2, &[(0, 0), (0, 1), (1, 1)]);
        let (rank, mr) = maximum_matching(2, &cp, &ri);
        assert_eq!(rank, 2);
        assert!(mr.iter().all(|&r| r != UNMATCHED));
    }

    #[test]
    fn matching_detects_empty_column() {
        // Column 2 has no structural entries at all.
        let (cp, ri) = pattern(3, &[(0, 0), (1, 1), (2, 1)]);
        let (rank, mr) = maximum_matching(3, &cp, &ri);
        assert_eq!(rank, 2);
        assert_eq!(mr[2], UNMATCHED);
        match structural_check(3, &cp, &ri) {
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
        let (cp, ri) = pattern(3, &[(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]);
        let (rank, _) = maximum_matching(3, &cp, &ri);
        assert_eq!(rank, 2);
    }

    #[test]
    fn dense_check_treats_only_positive_zero_as_empty() {
        // Column 1 holds only `+0.0` entries: structurally empty.
        let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![2.0, 0.0]]);
        assert!(matches!(
            check_dense(&m),
            Err(SimError::StructurallySingular {
                column: 1,
                structural_rank: 1,
                dim: 2,
            })
        ));
        // A `-0.0` entry counts as structural, as in the LU's fill rule.
        let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, -0.0]]);
        assert!(check_dense(&m).is_ok());
    }

    #[test]
    fn btf_structurally_singular_is_rediagnosed() {
        // A factorization reused across Newton iterations: a good matrix,
        // then one with an empty column. The LU fails numerically and the
        // dense check names the empty column on every attempt, so the
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
            match check_dense(&bad) {
                Err(SimError::StructurallySingular { column, .. }) => assert_eq!(column, 1),
                other => panic!("expected StructurallySingular, got {other:?}"),
            }
        }
    }

    #[test]
    fn btf_numerically_singular_block_reports_original_column() {
        // Structurally fine, numerically singular: rows 1 and 2 are equal
        // in the {1,2} block. The structural check passes, so the LU's
        // numeric diagnosis stands, naming the block's last column in the
        // original numbering.
        let m = Matrix::from_rows(&[
            vec![3.0, 0.5, 0.0],
            vec![0.0, 1.0, 2.0],
            vec![0.0, 1.0, 2.0],
        ]);
        assert!(check_dense(&m).is_ok());
        match LuFactors::factor(m, 1e-300).err() {
            Some(SimError::SingularMatrix { column }) => assert_eq!(column, 2),
            other => panic!("expected SingularMatrix, got {other:?}"),
        }
    }
}
