//! Linear algebra for modified nodal analysis (MNA).
//!
//! Schematic-level circuit matrices in this project are small (tens of
//! unknowns), where a dense LU factorization with partial pivoting is both
//! simpler and faster than sparse machinery — those kernels live in this
//! module. Post-layout extraction meshes push the dimension into the
//! hundreds, where the O(n³) dense elimination loses to a fill-reducing
//! sparse factorization; that backend lives in [`sparse`], and
//! [`sparse::SolverConfig`] picks between the two by dimension. The dense
//! factorization is generic over the matrix scalar so the same code path
//! serves real (DC, transient) and complex (AC, noise) analyses.

pub(crate) mod correction;
pub mod sparse;
pub mod structure;

use crate::complex::Complex;
use crate::error::SimError;

/// Scalar types usable in an MNA system.
///
/// This trait is sealed in spirit: it is implemented for [`f64`] and
/// [`Complex`] and the simulator does not expect downstream
/// implementations. `Send + Sync` are supertraits so factorizations over
/// any `Scalar` can fan out across the scoped-thread tile scheduler in
/// [`crate::par`] (both implementors are plain `Copy` data).
pub trait Scalar:
    Copy
    + Send
    + Sync
    + Default
    + PartialEq
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Magnitude used for pivot selection and singularity detection.
    fn abs(self) -> f64;
}

impl Scalar for f64 {
    #[inline]
    fn zero() -> Self {
        0.0
    }
    #[inline]
    fn one() -> Self {
        1.0
    }
    #[inline]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
}

impl Scalar for Complex {
    #[inline]
    fn zero() -> Self {
        Complex::ZERO
    }
    #[inline]
    fn one() -> Self {
        Complex::ONE
    }
    #[inline]
    fn abs(self) -> f64 {
        self.norm()
    }
}

/// A dense, row-major square-capable matrix.
///
/// # Examples
///
/// ```
/// use autockt_sim::linalg::Matrix;
///
/// let mut m = Matrix::<f64>::zeros(2, 2);
/// m[(0, 0)] = 2.0;
/// m[(1, 1)] = 4.0;
/// assert_eq!(m[(1, 1)], 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Builds a matrix from a row-major slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix {
            rows: r,
            cols: c,
            data: rows.iter().flat_map(|row| row.iter().copied()).collect(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(T::zero());
    }

    /// Copies `src` into `self`, reusing the existing allocation when the
    /// capacity suffices (the DC Newton loop overwrites the same matrix
    /// every iteration).
    pub fn copy_from(&mut self, src: &Matrix<T>) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![T::zero(); self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = T::zero();
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (a, b) in row.iter().zip(x) {
                acc += *a * *b;
            }
            *yi = acc;
        }
        y
    }
}

impl<T> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        &self.data[r * self.cols + c]
    }
}

impl<T> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        &mut self.data[r * self.cols + c]
    }
}

/// LU factorization with partial pivoting of a square matrix.
///
/// Factor once, then [`LuFactors::solve`] any number of right-hand sides —
/// the noise analysis exploits this by reusing one factorization per
/// frequency point across every noise source.
#[derive(Debug, Clone)]
pub struct LuFactors<T> {
    lu: Matrix<T>,
    perm: Vec<usize>,
}

impl<T: Scalar> Default for LuFactors<T> {
    fn default() -> Self {
        LuFactors::empty()
    }
}

impl<T: Scalar> LuFactors<T> {
    /// Factors `a` in place (consuming it).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SingularMatrix`] if no usable pivot is found in
    /// some column (matrix is singular to working precision).
    pub fn factor(a: Matrix<T>, pivot_floor: f64) -> Result<Self, SimError> {
        let mut f = LuFactors {
            lu: a,
            perm: Vec::new(),
        };
        f.eliminate(pivot_floor)?;
        Ok(f)
    }

    /// Creates an empty factorization whose buffers [`LuFactors::refactor`]
    /// fills; solving before a successful refactor panics on the dimension
    /// check.
    pub fn empty() -> Self {
        LuFactors {
            lu: Matrix::zeros(0, 0),
            perm: Vec::new(),
        }
    }

    /// Re-factors `a` into this object's buffers, reusing the matrix and
    /// permutation allocations (the DC Newton loop refactors a
    /// same-dimension Jacobian every iteration).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SingularMatrix`] like [`LuFactors::factor`]; on
    /// error the stored factorization is garbage and must be refactored
    /// before the next solve.
    pub fn refactor(&mut self, a: &Matrix<T>, pivot_floor: f64) -> Result<(), SimError> {
        self.lu.copy_from(a);
        self.eliminate(pivot_floor)
    }

    /// Re-factors an `n x n` system assembled in place by `fill` (invoked
    /// on a zeroed matrix), reusing this object's buffers. This skips the
    /// separate assembly matrix entirely — the AC sweep stamps its sparse
    /// pattern straight into the factorization buffer once per frequency.
    ///
    /// # Errors
    ///
    /// Same contract as [`LuFactors::refactor`].
    pub fn refactor_with(
        &mut self,
        n: usize,
        pivot_floor: f64,
        fill: impl FnOnce(&mut Matrix<T>),
    ) -> Result<(), SimError> {
        if self.lu.rows != n || self.lu.cols != n {
            self.lu = Matrix::zeros(n, n);
        } else {
            self.lu.fill_zero();
        }
        fill(&mut self.lu);
        self.eliminate(pivot_floor)
    }

    fn eliminate(&mut self, pivot_floor: f64) -> Result<(), SimError> {
        let LuFactors { lu: a, perm } = self;
        assert_eq!(a.rows, a.cols, "LU requires a square matrix");
        let n = a.rows;
        perm.clear();
        perm.extend(0..n);
        let data = &mut a.data;
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

    /// Solves `A x = b` for the factored `A`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` into a caller-provided buffer, reusing its
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve_into(&self, b: &[T], x: &mut Vec<T>) {
        let n = self.lu.rows;
        assert_eq!(b.len(), n, "dimension mismatch");
        // Apply permutation.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        let data = &self.lu.data;
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

    /// Solves `A X = B` for `lanes` right-hand sides in one pass over the
    /// factors, with `b` and `x` in lane-innermost layout
    /// (`[i * lanes + lane]`). Each lane performs the exact arithmetic of
    /// [`LuFactors::solve_into`] in the exact order — permutation, forward,
    /// backward — so every lane's solution is bitwise-equal to a scalar
    /// solve of that lane; the fusion only shares the single traversal of
    /// the `n x n` factor across all lanes (memory traffic `n² + lanes·n`
    /// instead of `lanes·n²`).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim * lanes`.
    pub fn solve_multi_into(&self, b: &[T], lanes: usize, x: &mut Vec<T>) {
        let n = self.lu.rows;
        assert_eq!(b.len(), n * lanes, "dimension mismatch");
        x.clear();
        x.reserve(n * lanes);
        for &p in &self.perm {
            x.extend_from_slice(&b[p * lanes..(p + 1) * lanes]);
        }
        let data = &self.lu.data;
        // Forward substitution (L has unit diagonal), all lanes per row.
        for i in 1..n {
            let row = &data[i * n..i * n + i];
            let (done, rest) = x.split_at_mut(i * lanes);
            let xi = &mut rest[..lanes];
            for (j, l) in row.iter().enumerate() {
                let xj = &done[j * lanes..(j + 1) * lanes];
                for (acc, &v) in xi.iter_mut().zip(xj) {
                    let upd = *l * v;
                    *acc -= upd;
                }
            }
        }
        // Back substitution.
        for i in (0..n).rev() {
            let row = &data[i * n..(i + 1) * n];
            let (head, tail) = x.split_at_mut((i + 1) * lanes);
            let xi = &mut head[i * lanes..];
            for (j, l) in row.iter().enumerate().skip(i + 1) {
                let xj = &tail[(j - i - 1) * lanes..(j - i) * lanes];
                for (acc, &v) in xi.iter_mut().zip(xj) {
                    let upd = *l * v;
                    *acc -= upd;
                }
            }
            let d = row[i];
            for acc in xi.iter_mut() {
                let v = *acc / d;
                *acc = v;
            }
        }
    }
}

/// LU factorization with partial pivoting of a *complex* square matrix in
/// structure-of-arrays layout: the real and imaginary parts live in two
/// parallel row-major `f64` arrays instead of an array of [`Complex`]
/// structs.
///
/// The split layout is what unlocks autovectorization of the elimination
/// inner loop — each rank-1 update becomes four independent multiplies and
/// two subtractions over contiguous `f64` slices, which LLVM turns into
/// packed SIMD, whereas the interleaved `Complex` layout forces scalar
/// shuffles. The arithmetic (operation kinds and order, pivot selection by
/// [`Complex::norm`]) is *identical* to `LuFactors<Complex>`, so factors
/// and solutions are bitwise-equal to the generic kernel's
/// (property-tested in `tests/proptest_linalg.rs`).
///
/// This is the per-frequency-point kernel of the AC sweep: the MNA system
/// `G + j w C` is stamped straight into the factor buffers once per point
/// and eliminated in place, with no per-point allocation.
#[derive(Debug, Clone, Default)]
pub struct ComplexLuSoa {
    n: usize,
    re: Vec<f64>,
    im: Vec<f64>,
    perm: Vec<usize>,
}

impl ComplexLuSoa {
    /// Creates an empty factorization whose buffers
    /// [`ComplexLuSoa::refactor_with`] fills; solving before a successful
    /// refactor panics on the dimension check.
    pub fn empty() -> Self {
        ComplexLuSoa::default()
    }

    /// Dimension of the factored system (0 before the first refactor).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Factors a dense complex matrix, splitting it into SoA storage.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SingularMatrix`] like [`LuFactors::factor`].
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &Matrix<Complex>, pivot_floor: f64) -> Result<Self, SimError> {
        assert_eq!(a.rows(), a.cols(), "LU requires a square matrix");
        let n = a.rows();
        let mut f = ComplexLuSoa::empty();
        f.refactor_with(n, pivot_floor, |re, im| {
            for r in 0..n {
                for c in 0..n {
                    let v = a[(r, c)];
                    re[r * n + c] = v.re;
                    im[r * n + c] = v.im;
                }
            }
        })?;
        Ok(f)
    }

    /// Re-factors an `n x n` system assembled in place by `fill` (invoked
    /// on zeroed re/im arrays in row-major order), reusing this object's
    /// buffers — the SoA analogue of [`LuFactors::refactor_with`], used by
    /// the AC sweep to stamp its sparse pattern once per frequency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SingularMatrix`]; on error the stored
    /// factorization is garbage and must be refactored before the next
    /// solve.
    pub fn refactor_with(
        &mut self,
        n: usize,
        pivot_floor: f64,
        fill: impl FnOnce(&mut [f64], &mut [f64]),
    ) -> Result<(), SimError> {
        if self.n != n || self.re.len() != n * n {
            self.n = n;
            self.re.clear();
            self.re.resize(n * n, 0.0);
            self.im.clear();
            self.im.resize(n * n, 0.0);
        } else {
            self.re.fill(0.0);
            self.im.fill(0.0);
        }
        fill(&mut self.re, &mut self.im);
        self.eliminate(pivot_floor)
    }

    fn eliminate(&mut self, pivot_floor: f64) -> Result<(), SimError> {
        let n = self.n;
        let (re, im) = (&mut self.re, &mut self.im);
        self.perm.clear();
        self.perm.extend(0..n);
        for k in 0..n {
            // Partial pivoting on the same |.| as the generic kernel.
            let mut p = k;
            let mut best = Complex::norm_parts(re[k * n + k], im[k * n + k]);
            for i in (k + 1)..n {
                let v = Complex::norm_parts(re[i * n + k], im[i * n + k]);
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best <= pivot_floor || !best.is_finite() {
                return Err(SimError::SingularMatrix { column: k });
            }
            if p != k {
                let (lo, hi) = re.split_at_mut(p * n);
                lo[k * n..(k + 1) * n].swap_with_slice(&mut hi[..n]);
                let (lo, hi) = im.split_at_mut(p * n);
                lo[k * n..(k + 1) * n].swap_with_slice(&mut hi[..n]);
                self.perm.swap(k, p);
            }
            let pivot = Complex::new(re[k * n + k], im[k * n + k]);
            let (top_re, bot_re) = re.split_at_mut((k + 1) * n);
            let (top_im, bot_im) = im.split_at_mut((k + 1) * n);
            let row_k_re = &top_re[k * n + k + 1..];
            let row_k_im = &top_im[k * n + k + 1..];
            for (row_re, row_im) in bot_re.chunks_exact_mut(n).zip(bot_im.chunks_exact_mut(n)) {
                let m = Complex::new(row_re[k], row_im[k]) / pivot;
                row_re[k] = m.re;
                row_im[k] = m.im;
                let (mr, mi) = (m.re, m.im);
                // Rank-1 update over four parallel f64 slices: the compiler
                // vectorizes this where the interleaved Complex loop stays
                // scalar. Same multiplies and subtractions, same order, as
                // `x -= m * y` on Complex values.
                let xr = row_re[k + 1..].iter_mut();
                let xi = row_im[k + 1..].iter_mut();
                for (((x_r, x_i), &yr), &yi) in xr.zip(xi).zip(row_k_re).zip(row_k_im) {
                    *x_r -= mr * yr - mi * yi;
                    *x_i -= mr * yi + mi * yr;
                }
            }
        }
        Ok(())
    }

    /// Solves `A x = b` for the factored `A`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve(&self, b: &[Complex]) -> Vec<Complex> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` into a caller-provided buffer, reusing its
    /// allocation. Produces results bitwise-equal to
    /// [`LuFactors::solve_into`] on the same system.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve_into(&self, b: &[Complex], x: &mut Vec<Complex>) {
        let n = self.n;
        assert_eq!(b.len(), n, "dimension mismatch");
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let row_re = &self.re[i * n..i * n + i];
            let row_im = &self.im[i * n..i * n + i];
            let mut acc = x[i];
            for ((&lr, &li), &xj) in row_re.iter().zip(row_im).zip(x.iter()) {
                acc -= Complex::new(lr, li) * xj;
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let row_re = &self.re[i * n + i + 1..(i + 1) * n];
            let row_im = &self.im[i * n + i + 1..(i + 1) * n];
            let mut acc = x[i];
            for ((&lr, &li), &xj) in row_re.iter().zip(row_im).zip(x[i + 1..].iter()) {
                acc -= Complex::new(lr, li) * xj;
            }
            x[i] = acc / Complex::new(self.re[i * n + i], self.im[i * n + i]);
        }
    }
}

/// A factored linear system that can back-substitute right-hand sides.
///
/// This is the seam between the analyses and the factorization backends:
/// solve-side code holds "something factored" — the dense [`LuFactors`],
/// the SoA [`ComplexLuSoa`], or the sparse [`sparse::SparseLu`] — and
/// drives it through this trait without caring which elimination produced
/// it. Factoring stays on the concrete types because each backend's
/// assembly entry point is shaped differently (consume a [`Matrix`],
/// fill SoA buffers in place, compress triplets).
pub trait LinearSolver<T: Scalar> {
    /// Dimension of the factored system (0 before the first factorization).
    fn dim(&self) -> usize;

    /// Solves `A x = b` into a caller-provided buffer, reusing its
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the factored dimension.
    fn solve_into(&self, b: &[T], x: &mut Vec<T>);

    /// Solves `A x = b`, allocating the solution vector.
    fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x);
        x
    }
}

impl<T: Scalar> LinearSolver<T> for LuFactors<T> {
    fn dim(&self) -> usize {
        self.lu.rows
    }
    fn solve_into(&self, b: &[T], x: &mut Vec<T>) {
        LuFactors::solve_into(self, b, x);
    }
}

impl LinearSolver<Complex> for ComplexLuSoa {
    fn dim(&self) -> usize {
        self.n
    }
    fn solve_into(&self, b: &[Complex], x: &mut Vec<Complex>) {
        ComplexLuSoa::solve_into(self, b, x);
    }
}

/// Convenience one-shot solve of `A x = b`.
///
/// # Errors
///
/// Returns [`SimError::SingularMatrix`] when `a` is singular to working
/// precision.
pub fn solve<T: Scalar>(a: Matrix<T>, b: &[T]) -> Result<Vec<T>, SimError> {
    Ok(LuFactors::factor(a, 1e-300)?.solve(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = Matrix::<f64>::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let x = solve(a, &b).unwrap();
        assert_eq!(x, b);
    }

    #[test]
    fn solve_known_system() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = solve(a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = solve(a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(
            solve(a, &[1.0, 2.0]),
            Err(SimError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn complex_solve_roundtrip() {
        use crate::complex::Complex as C;
        let a = Matrix::from_rows(&[
            vec![C::new(1.0, 1.0), C::new(0.0, -2.0)],
            vec![C::new(3.0, 0.0), C::new(1.0, 1.0)],
        ]);
        let xtrue = vec![C::new(1.0, -1.0), C::new(2.0, 0.5)];
        let b = a.mul_vec(&xtrue);
        let x = solve(a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&xtrue) {
            assert!((*xi - *ti).norm() < 1e-10);
        }
    }

    #[test]
    fn factor_reuse_multiple_rhs() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        let f = LuFactors::factor(a.clone(), 1e-300).unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [2.0, -5.0]] {
            let x = f.solve(&b);
            let back = a.mul_vec(&x);
            assert!((back[0] - b[0]).abs() < 1e-12);
            assert!((back[1] - b[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn refactor_reuses_buffers_across_systems() {
        let mut lu = LuFactors::<f64>::empty();
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]);
        lu.refactor(&a, 1e-300).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&[5.0, 10.0], &mut x);
        let back = a.mul_vec(&x);
        assert!((back[0] - 5.0).abs() < 1e-12);
        assert!((back[1] - 10.0).abs() < 1e-12);
        // A different same-size system lands in the same buffers.
        let b = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        lu.refactor(&b, 1e-300).unwrap();
        lu.solve_into(&[5.0, 10.0], &mut x);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn copy_from_tracks_source_dimensions() {
        let src = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut dst = Matrix::<f64>::zeros(5, 5);
        dst.copy_from(&src);
        assert_eq!(dst.rows(), 2);
        assert_eq!(dst.cols(), 2);
        assert_eq!(dst[(1, 0)], 3.0);
    }

    #[test]
    fn soa_lu_is_bitwise_identical_to_generic_complex_lu() {
        use crate::complex::Complex as C;
        let a = Matrix::from_rows(&[
            vec![C::new(1.0, 1.0), C::new(0.0, -2.0), C::new(0.5, 0.1)],
            vec![C::new(3.0, 0.0), C::new(1.0, 1.0), C::new(-1.0, 2.0)],
            vec![C::new(0.2, -0.7), C::new(4.0, 0.0), C::new(1.5, -1.5)],
        ]);
        let b = vec![C::new(1.0, -1.0), C::new(2.0, 0.5), C::new(-0.3, 0.9)];
        let aos = LuFactors::factor(a.clone(), 1e-300).unwrap().solve(&b);
        let soa = ComplexLuSoa::factor(&a, 1e-300).unwrap().solve(&b);
        // Same operations in the same order: bitwise equality, not just
        // tolerance-level agreement.
        assert_eq!(aos, soa);
    }

    #[test]
    fn soa_refactor_reuses_buffers_across_dimensions() {
        use crate::complex::Complex as C;
        let mut lu = ComplexLuSoa::empty();
        assert_eq!(lu.dim(), 0);
        // 2x2 system.
        lu.refactor_with(2, 1e-300, |re, im| {
            re[0] = 2.0;
            re[3] = 4.0;
            im[1] = 1.0;
            im[2] = -1.0;
        })
        .unwrap();
        let x = lu.solve(&[C::from_re(2.0), C::from_re(4.0)]);
        let a = Matrix::from_rows(&[
            vec![C::new(2.0, 0.0), C::new(0.0, 1.0)],
            vec![C::new(0.0, -1.0), C::new(4.0, 0.0)],
        ]);
        let back = a.mul_vec(&x);
        assert!((back[0] - C::from_re(2.0)).norm() < 1e-12);
        assert!((back[1] - C::from_re(4.0)).norm() < 1e-12);
        // A different-dimension system lands in regrown buffers.
        lu.refactor_with(1, 1e-300, |re, _| re[0] = 5.0).unwrap();
        assert_eq!(lu.dim(), 1);
        let x1 = lu.solve(&[C::from_re(10.0)]);
        assert!((x1[0] - C::from_re(2.0)).norm() < 1e-12);
    }

    #[test]
    fn soa_singular_matrix_is_reported() {
        use crate::complex::Complex as C;
        let a = Matrix::from_rows(&[
            vec![C::new(1.0, 2.0), C::new(2.0, 4.0)],
            vec![C::new(2.0, 4.0), C::new(4.0, 8.0)],
        ]);
        assert!(matches!(
            ComplexLuSoa::factor(&a, 1e-300),
            Err(SimError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }
}
