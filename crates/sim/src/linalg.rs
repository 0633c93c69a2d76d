//! Linear algebra for modified nodal analysis (MNA).
//!
//! Every MNA system this project solves is schematic- or extraction-sized
//! (dims 4 to 60 on the benchmark workloads), where a dense LU
//! factorization with partial pivoting is both simpler and faster than
//! sparse machinery. That kernel, [`LuFactors`], lives in this module and
//! is the simulator's one factorization backend.
//!
//! [`LuFactors`] is generic over the matrix scalar, so one kernel serves
//! both kinds of system:
//! - real: the DC and transient Newton iterations and the small-signal
//!   step response;
//! - complex: the per-point AC oracle and the Woodbury corner rows the AC
//!   and noise corner paths share (base factor, corrections, per-corner
//!   fallbacks).
//!
//! MNA matrices are mostly zeros even when they are small — the op-amp's
//! 11 x 11 AC system has 40 stamped entries out of 121 — so the
//! factorization tracks which entries can be nonzero (one bitset
//! per row, fill included) and spends its arithmetic only on those, while
//! staying bit-identical to a plain dense elimination (see [`LuFactors`]
//! for the argument). The bitsets are its only structure record: the
//! elimination and both triangular sweeps of every solve walk them, and a
//! sweep that must visit every entry runs the same loop over every column.
//!
//! Dense AC and noise sweeps do not factor per point: [`pencil`] reduces
//! `(G, C)` to Hessenberg–triangular form once per operating point, after
//! which each frequency point is an O(n²) Hessenberg solve. [`structure`]
//! holds the structural-rank diagnosis the DC solve runs on a singular
//! Jacobian, read off the dense matrix by the same "not exactly `+0.0`"
//! rule.

pub(crate) mod correction;
pub mod pencil;
pub mod structure;

use crate::complex::Complex;
use crate::error::SimError;

/// Bit pattern of `-0.0`.
const NEG_ZERO: u64 = 1 << 63;

/// Scalar types usable in an MNA system.
///
/// This trait is sealed in spirit: it is implemented for [`f64`] and
/// [`Complex`] and the simulator does not expect downstream
/// implementations.
pub trait Scalar:
    Copy
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
    /// Exactly `self.abs() > other.abs()`, possibly decided without
    /// computing either magnitude.
    fn abs_gt(self, other: Self) -> bool;
    /// Exactly `self.abs() <= floor || !self.abs().is_finite()` (an
    /// unusable pivot), possibly decided without computing the magnitude.
    fn below_floor(self, floor: f64) -> bool;
    /// Whether every component is `+0.0` (all bits zero): the entries
    /// [`LuFactors`] treats as structurally absent.
    fn is_pos_zero(self) -> bool;
    /// Whether every component is finite.
    fn is_finite(self) -> bool;
    /// Whether every component is finite and none is `-0.0`.
    fn is_plain(self) -> bool;
    /// A pivot prepared for many divisions: `a.div_pivot(p.pivot_divisor())`
    /// is bitwise `a / p`.
    fn pivot_divisor(self) -> Self;
    /// Divides by a pivot prepared with [`Scalar::pivot_divisor`].
    fn div_pivot(self, divisor: Self) -> Self;
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
    #[inline]
    fn abs_gt(self, other: Self) -> bool {
        f64::abs(self) > f64::abs(other)
    }
    #[inline]
    fn below_floor(self, floor: f64) -> bool {
        let a = f64::abs(self);
        a <= floor || !a.is_finite()
    }
    #[inline]
    fn is_pos_zero(self) -> bool {
        self.to_bits() == 0
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn is_plain(self) -> bool {
        f64::is_finite(self) & (self.to_bits() != NEG_ZERO)
    }
    #[inline]
    fn pivot_divisor(self) -> Self {
        // A real division is exact-rounded; a reciprocal would round twice.
        self
    }
    #[inline]
    fn div_pivot(self, divisor: Self) -> Self {
        self / divisor
    }
}

/// Where a complex squared norm is a normal number with rounding error of a
/// few ulps, so comparing squares decides comparing magnitudes whenever
/// they differ by more than a relative 1e-13.
const SQUARES: std::ops::RangeInclusive<f64> = 1e-280..=1e280;

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
    /// Compares squared norms first, which costs two multiplies instead of
    /// a libm `hypot`. A square inside `SQUARES` that exceeds the other
    /// by more than a relative 1e-13 decides `hypot`'s comparison too;
    /// anything closer, or out of range, compares the magnitudes
    /// themselves.
    #[inline]
    fn abs_gt(self, other: Self) -> bool {
        let (a, b) = (self.norm_sqr(), other.norm_sqr());
        // The larger square must be in range; the smaller may underflow
        // (even to 0, as for an empty diagonal), which only shrinks it.
        if SQUARES.contains(&a) && b < a * (1.0 - 1e-13) {
            return true;
        }
        if SQUARES.contains(&b) && a < b * (1.0 - 1e-13) {
            return false;
        }
        self.norm() > other.norm()
    }
    /// Decided on squared norms like [`Scalar::abs_gt`]; a squared norm
    /// inside [1e-280, 1e280] also proves the magnitude finite and above
    /// any floor under 1e-141.
    #[inline]
    fn below_floor(self, floor: f64) -> bool {
        let a = self.norm_sqr();
        if SQUARES.contains(&a) {
            if floor < 1e-141 {
                return false;
            }
            let f = floor * floor;
            if SQUARES.contains(&f) && (a - f).abs() > 1e-13 * a.max(f) {
                return a <= f;
            }
        }
        let m = self.norm();
        m <= floor || !m.is_finite()
    }
    #[inline]
    fn is_pos_zero(self) -> bool {
        (self.re.to_bits() | self.im.to_bits()) == 0
    }
    #[inline]
    fn is_finite(self) -> bool {
        Complex::is_finite(self)
    }
    #[inline]
    fn is_plain(self) -> bool {
        self.re.is_plain() & self.im.is_plain()
    }
    #[inline]
    fn pivot_divisor(self) -> Self {
        // Complex `Div` is `a * b.recip()`, so one reciprocal per pivot
        // serves every division by it.
        self.recip()
    }
    #[inline]
    fn div_pivot(self, divisor: Self) -> Self {
        self * divisor
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

/// LU factorization with partial pivoting of a square matrix, computed
/// over the entries that can be nonzero.
///
/// Factor once, then [`LuFactors::solve`] any number of right-hand sides,
/// or solve the transposed system ([`LuFactors::solve_transposed_into`]) —
/// the corner noise analysis reads every noise source's transfer off a
/// few transposed solves per frequency point.
///
/// # Structure tracking
///
/// The factorization keeps one nonzero bitset per row, `⌈n/64⌉` `u64`
/// words, built from the assembled matrix: an entry is *structural* unless
/// it is exactly `+0.0` (all bits zero; `-0.0` is structural). The
/// bitsets are swapped along with the rows, and each elimination step ORs
/// the pivot row's pattern into every row it updates, which records the
/// fill. The bitsets are the one structure record: the pivot search, the
/// rank-1 updates and both triangular sweeps of every solve visit only
/// set bits, so an 11 x 11 MNA system with 40 stamped entries costs about
/// an eighth of the dense elimination's multiply-adds.
///
/// The factors and solutions are **bit-identical** to the plain dense
/// elimination (the same loops over every entry):
///
/// - Every update the dense loops would apply and this kernel skips
///   multiplies by a `±0` (a non-structural factor entry, or the `0 /
///   pivot` multiplier of a row with nothing to eliminate). With the other
///   factor finite the product is `±0`, and `x - (±0) = x` for every `x`
///   but `-0.0`. A subtraction yields `-0.0` only from `-0.0`, so no
///   target of these updates holds one unless the input did. By
///   induction, non-structural entries hold `+0.0` in the dense
///   elimination too.
/// - A `+0.0` pivot candidate never beats the running best, so the pivot
///   search picks the same row. Complex candidates are compared through
///   [`Scalar::abs_gt`], which decides exactly as comparing `hypot`s does.
/// - Where the dense loop stores the `0 / pivot` multiplier of a skipped
///   row (a signed zero), this kernel stores that same value, so the
///   factor buffer is bitwise the dense one.
///
/// The side conditions are checked, not assumed. An input with a `-0.0`
/// or non-finite component is factored with every entry marked
/// structural, and so is the rest of an elimination once a pivot-row
/// entry is non-finite (an overflow). A solve whose right-hand side holds
/// a `-0.0` or non-finite component runs over every entry, and so does a
/// rerun of a solve whose result came out non-finite: the same loop body,
/// walking every column instead of the set bits. All of these do the
/// dense loops' arithmetic over every entry. (NaN sign and payload
/// bits are outside the claim: Rust leaves them unspecified for arithmetic
/// results.)
#[derive(Debug, Clone)]
pub struct LuFactors<T> {
    lu: Matrix<T>,
    perm: Vec<usize>,
    /// Row nonzero patterns of the factors, fill included, `⌈n/64⌉` words
    /// per row; bit `j % 64` of word `j / 64` is set when entry `(i, j)`
    /// is structural (L left of the diagonal, U right of it).
    pattern: Vec<u64>,
    /// `pivot_divisor` of each diagonal entry of U, for the back
    /// substitution's divisions.
    divisors: Vec<T>,
}

impl<T: Scalar> Default for LuFactors<T> {
    fn default() -> Self {
        LuFactors::empty()
    }
}

/// Calls `f(j)` for every column `lo <= j < hi` set in the row pattern
/// `pattern`, in increasing order.
#[inline]
fn for_each_col(pattern: &[u64], lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    if lo >= hi {
        return;
    }
    let (first, last) = (lo / 64, (hi - 1) / 64);
    for (w, &word) in pattern.iter().enumerate().take(last + 1).skip(first) {
        let mut bits = word;
        if w == first {
            bits &= u64::MAX << (lo % 64);
        }
        if w == last {
            bits &= u64::MAX >> (63 - (hi - 1) % 64);
        }
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
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
            ..LuFactors::empty()
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
            pattern: Vec::new(),
            divisors: Vec::new(),
        }
    }

    /// Dimension of the factored system (0 before the first factorization).
    pub fn dim(&self) -> usize {
        self.lu.rows
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
    /// separate assembly matrix entirely — the Woodbury corner sweeps stamp
    /// their `(row, col, g, c)` pattern straight into the factorization
    /// buffer once per frequency.
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
        let LuFactors {
            lu: a,
            perm,
            pattern,
            divisors,
        } = self;
        assert_eq!(a.rows, a.cols, "LU requires a square matrix");
        let n = a.rows;
        perm.clear();
        perm.extend(0..n);
        divisors.clear();
        let w = n.div_ceil(64);
        pattern.clear();
        pattern.resize(n * w, 0);
        if n == 0 {
            return Ok(());
        }
        let data = &mut a.data;
        let mut plain = true;
        for (row, bits) in data.chunks_exact(n).zip(pattern.chunks_exact_mut(w)) {
            for (chunk, word) in row.chunks(64).zip(bits) {
                let mut set = 0u64;
                for v in chunk.iter().rev() {
                    set = set << 1 | u64::from(!v.is_pos_zero());
                }
                *word = set;
                for_each_col(std::slice::from_ref(&set), 0, chunk.len(), |j| {
                    plain &= chunk[j].is_plain();
                });
            }
        }
        // Once set, every entry is structural: the loops below then perform
        // exactly the dense elimination.
        let mut dense = !plain;
        if dense {
            pattern.fill(u64::MAX);
        }
        for k in 0..n {
            let (kw, kb) = (k / 64, 1u64 << (k % 64));
            // Partial pivoting: the largest magnitude in column k. Rows
            // without column k in their pattern hold +0 there and cannot
            // win.
            let mut p = k;
            let mut best = data[k * n + k];
            for i in (k + 1)..n {
                if pattern[i * w + kw] & kb != 0 {
                    let v = data[i * n + k];
                    if v.abs_gt(best) {
                        best = v;
                        p = i;
                    }
                }
            }
            if best.below_floor(pivot_floor) {
                return Err(SimError::SingularMatrix { column: k });
            }
            if p != k {
                let (lo, hi) = data.split_at_mut(p * n);
                lo[k * n..(k + 1) * n].swap_with_slice(&mut hi[..n]);
                let (lo, hi) = pattern.split_at_mut(p * w);
                lo[k * w..(k + 1) * w].swap_with_slice(&mut hi[..w]);
                perm.swap(k, p);
            }
            // Row k is final from here on: its columns right of the
            // diagonal are U's row k. A non-finite entry there makes the
            // skipped `0 * y` of a row with nothing to eliminate NaN.
            // (Multipliers need no such check: partial pivoting bounds them
            // by 1 unless the column holds a NaN, which only a non-finite
            // pivot-row entry of an earlier step can create.)
            if !dense {
                let mut finite = true;
                for_each_col(&pattern[k * w..(k + 1) * w], k + 1, n, |j| {
                    finite &= data[k * n + j].is_finite();
                });
                if !finite {
                    dense = true;
                    pattern.fill(u64::MAX);
                }
            }
            let divisor = data[k * n + k].pivot_divisor();
            divisors.push(divisor);
            let zero_multiplier = T::zero().div_pivot(divisor);
            let (top, bottom) = data.split_at_mut((k + 1) * n);
            let row_k = &top[k * n..];
            for (i, row_i) in ((k + 1)..n).zip(bottom.chunks_exact_mut(n)) {
                if pattern[i * w + kw] & kb == 0 {
                    row_i[k] = zero_multiplier;
                    continue;
                }
                let m = row_i[k].div_pivot(divisor);
                row_i[k] = m;
                for_each_col(&pattern[k * w..(k + 1) * w], k + 1, n, |j| {
                    let v = m * row_k[j];
                    row_i[j] -= v;
                });
                if !dense {
                    // Fill: row i now has an entry wherever the pivot row
                    // has one right of column k.
                    for x in kw..w {
                        let mut upper = pattern[k * w + x];
                        if x == kw {
                            upper &= u64::MAX << (k % 64);
                        }
                        pattern[i * w + x] |= upper;
                    }
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
        assert_eq!(b.len(), self.lu.rows, "dimension mismatch");
        if !self.substitute(b, x, false) {
            self.substitute(b, x, true);
        }
    }

    /// Calls `f(j)` for every structural column `lo <= j < hi` of row `i`
    /// of the factors, or for every column in that range when `full`.
    #[inline]
    fn for_each_entry(&self, i: usize, lo: usize, hi: usize, full: bool, f: impl FnMut(usize)) {
        if full {
            (lo..hi).for_each(f);
        } else {
            let w = self.lu.rows.div_ceil(64);
            for_each_col(&self.pattern[i * w..(i + 1) * w], lo, hi, f);
        }
    }

    /// Forward and back substitution over the structural entries, or over
    /// every entry when `full`.
    ///
    /// Skipping entries is exact while no accumulator is -0.0 and every
    /// solved component is finite. A `b` with a -0.0 or non-finite
    /// component switches to `full` up front; a plain `b` keeps the
    /// accumulators off -0.0 (a subtraction yields -0.0 only from -0.0).
    /// A non-finite forward component leaves its final component
    /// non-finite too, so the result alone tells whether some skipped
    /// product was NaN: the return value is `false` then, and the caller
    /// reruns with `full`.
    fn substitute(&self, b: &[T], x: &mut Vec<T>, full: bool) -> bool {
        let n = self.lu.rows;
        // Apply permutation.
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        let full = full || !x.iter().all(|v| v.is_plain());
        let data = &self.lu.data;
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let row = &data[i * n..(i + 1) * n];
            let mut acc = x[i];
            self.for_each_entry(i, 0, i, full, |j| acc -= row[j] * x[j]);
            x[i] = acc;
        }
        // Back substitution.
        let mut finite = true;
        for i in (0..n).rev() {
            let row = &data[i * n..(i + 1) * n];
            let mut acc = x[i];
            self.for_each_entry(i, i + 1, n, full, |j| acc -= row[j] * x[j]);
            let v = acc.div_pivot(self.divisors[i]);
            x[i] = v;
            finite &= v.is_finite();
        }
        full || finite
    }

    /// Solves `Aᵀ x = b` for the factored `A` into a caller-provided
    /// buffer, reusing its allocation. With `PA = LU`, `Aᵀ = Uᵀ Lᵀ P`, so
    /// this runs `Uᵀ` forward, `Lᵀ` back, and then the inverse row
    /// permutation, all from the factors [`LuFactors::solve_into`] uses.
    /// One adjoint solve `Aᵀ z = e_o` gives entry `o` of `A⁻¹ b` for every
    /// right-hand side `b` as the product `z · b`.
    ///
    /// The structural sweeps are bitwise the sweeps over every entry,
    /// under the same rules as [`LuFactors::solve_into`]: a right-hand side
    /// with a `-0.0` or non-finite component runs over every entry, and so
    /// does a rerun of a solve whose result came out non-finite.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix dimension.
    pub fn solve_transposed_into(&self, b: &[T], x: &mut Vec<T>) {
        assert_eq!(b.len(), self.lu.rows, "dimension mismatch");
        if !self.substitute_transposed(b, x, false) {
            self.substitute_transposed(b, x, true);
        }
    }

    /// The two triangular sweeps of [`LuFactors::solve_transposed_into`],
    /// each a column sweep over the row-major factors (`Uᵀ`'s columns are
    /// `U`'s rows): a solved component is subtracted from every later
    /// accumulator through the structural entries of its row, or through
    /// every entry when `full`.
    ///
    /// Skipping an entry is exact while no accumulator is `-0.0` and every
    /// solved component is finite, as in [`LuFactors::substitute`]. The
    /// `Uᵀ` accumulators start from a plain `b`. Its divisions can leave a
    /// `-0.0`, so the `Lᵀ` accumulators start from `w + 0`, which turns a
    /// `-0.0` into `+0.0` and leaves every other value as it is. A
    /// non-finite component of `w` stays non-finite through the `Lᵀ` sweep,
    /// so a non-finite result again flags a rerun with `full`.
    fn substitute_transposed(&self, b: &[T], x: &mut Vec<T>, full: bool) -> bool {
        let n = self.lu.rows;
        let full = full || !b.iter().all(|v| v.is_plain());
        let data = &self.lu.data;
        // The sweeps run in `x[n..]`; the permutation then writes `x[..n]`.
        x.clear();
        x.resize(n, T::zero());
        x.extend_from_slice(b);
        let (out, v) = x.split_at_mut(n);
        // Uᵀ w = b, forward.
        for i in 0..n {
            let wi = v[i].div_pivot(self.divisors[i]);
            v[i] = wi;
            let row = &data[i * n..(i + 1) * n];
            self.for_each_entry(i, i + 1, n, full, |j| {
                let u = row[j] * wi;
                v[j] -= u;
            });
        }
        for vi in v.iter_mut() {
            *vi += T::zero();
        }
        // Lᵀ y = w, backward (L has unit diagonal).
        for i in (1..n).rev() {
            let yi = v[i];
            let row = &data[i * n..(i + 1) * n];
            self.for_each_entry(i, 0, i, full, |j| {
                let u = row[j] * yi;
                v[j] -= u;
            });
        }
        // x = Pᵀ y.
        for (&p, &yi) in self.perm.iter().zip(v.iter()) {
            out[p] = yi;
        }
        x.truncate(n);
        full || x.iter().all(|v| v.is_finite())
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
    fn refactor_with_reuses_buffers_across_dimensions() {
        use crate::complex::Complex as C;
        let mut lu = LuFactors::<C>::empty();
        assert_eq!(lu.dim(), 0);
        // 2x2 system.
        lu.refactor_with(2, 1e-300, |m| {
            m[(0, 0)] = C::new(2.0, 0.0);
            m[(0, 1)] = C::new(0.0, 1.0);
            m[(1, 0)] = C::new(0.0, -1.0);
            m[(1, 1)] = C::new(4.0, 0.0);
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
        lu.refactor_with(1, 1e-300, |m| m[(0, 0)] = C::from_re(5.0))
            .unwrap();
        assert_eq!(lu.dim(), 1);
        let x1 = lu.solve(&[C::from_re(10.0)]);
        assert!((x1[0] - C::from_re(2.0)).norm() < 1e-12);
    }

    #[test]
    fn complex_singular_matrix_is_reported() {
        use crate::complex::Complex as C;
        let a = Matrix::from_rows(&[
            vec![C::new(1.0, 2.0), C::new(2.0, 4.0)],
            vec![C::new(2.0, 4.0), C::new(4.0, 8.0)],
        ]);
        assert!(matches!(
            LuFactors::factor(a, 1e-300),
            Err(SimError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn empty_column_is_singular_at_that_column() {
        // Column 1 has no structural entry at all.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 2.0],
            vec![3.0, 0.0, 1.0],
            vec![0.0, 0.0, 5.0],
        ]);
        assert!(matches!(
            LuFactors::factor(a, 1e-300),
            Err(SimError::SingularMatrix { column: 1 })
        ));
    }

    #[test]
    fn fill_entries_are_tracked_across_words() {
        // An arrow matrix over two bitset words: eliminating the dense
        // first row and column fills the whole trailing block.
        let n = 70;
        let mut a = Matrix::<f64>::identity(n);
        for i in 1..n {
            a[(0, i)] = 0.5;
            a[(i, 0)] = 0.5 + i as f64 * 1e-3;
            a[(i, i)] = 2.0;
        }
        a[(0, 0)] = 4.0;
        let xt: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.mul_vec(&xt);
        let x = LuFactors::factor(a, 1e-300).unwrap().solve(&b);
        for (g, t) in x.iter().zip(&xt) {
            assert!((g - t).abs() < 1e-12, "{g} vs {t}");
        }
    }

    #[test]
    fn complex_abs_gt_steps_aside_where_squares_are_subnormal() {
        use crate::complex::Complex as C;
        // Squared norms 1.83e-322 > 1.8e-322 (subnormal, few digits), yet
        // |a| < |b|: only the exact comparison gets this right.
        let a = C::new(-3.745939665376556e-162, -1.297403111000071e-161);
        let b = C::new(2.7111975152743175e-162, -1.3231588438767412e-161);
        assert!(a.norm_sqr() > b.norm_sqr());
        assert!(a.norm() < b.norm());
        assert!(!a.abs_gt(b));
        assert!(b.abs_gt(a));
    }

    #[test]
    fn for_each_col_visits_set_bits_in_range() {
        let pattern = [0b1011_0001u64, 1 << 3 | 1 << 63];
        let mut seen = Vec::new();
        for_each_col(&pattern, 4, 100, |j| seen.push(j));
        assert_eq!(seen, vec![4, 5, 7, 67]);
        seen.clear();
        for_each_col(&pattern, 0, 128, |j| seen.push(j));
        assert_eq!(seen, vec![0, 4, 5, 7, 67, 127]);
    }

    /// Component bits of a solution, with every NaN mapped to one value
    /// (Rust leaves the sign and payload of an arithmetic NaN unspecified).
    fn bits(x: &[Complex]) -> Vec<(u64, u64)> {
        let b = |v: f64| if v.is_nan() { f64::NAN } else { v }.to_bits();
        x.iter().map(|c| (b(c.re), b(c.im))).collect()
    }

    #[test]
    fn transposed_structural_loops_match_dense_loops_bitwise() {
        use crate::complex::Complex as C;
        // A sparse 70 x 70 system over two pattern words, with branch rows
        // whose zero diagonals force row swaps and real-valued entries
        // whose products and divisions create signed zeros.
        let n = 70;
        let mut a = Matrix::<C>::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = C::new(if i % 3 == 0 { -2.0 } else { 3.0 }, 0.1 * (i % 5) as f64);
            if i + 1 < n {
                a[(i, i + 1)] = C::new(-0.5, 0.0);
                a[(i + 1, i)] = C::new(-0.7, 0.2);
            }
            a[(i, (i * 7 + 3) % n)] += C::new(0.3, -0.1);
        }
        for r in [10, 40, 65] {
            for c in 0..n {
                a[(r, c)] = C::ZERO;
            }
            a[(r, r - 5)] = C::ONE;
            a[(r - 5, r)] = C::ONE;
        }
        let f = LuFactors::factor(a.clone(), 1e-300).unwrap();
        let (mut structural, mut dense) = (Vec::new(), Vec::new());
        let mut unit = vec![C::ZERO; n];
        unit[37] = C::ONE;
        let ramp: Vec<C> = (0..n).map(|i| C::new(i as f64 - 30.0, 0.0)).collect();
        for b in [&unit, &ramp] {
            assert!(f.substitute_transposed(b, &mut structural, false));
            f.substitute_transposed(b, &mut dense, true);
            assert_eq!(bits(&structural), bits(&dense));
        }
        // The solution solves Aᵀ x = b.
        let at = Matrix::from_rows(
            &(0..n)
                .map(|r| (0..n).map(|c| a[(c, r)]).collect())
                .collect::<Vec<_>>(),
        );
        f.solve_transposed_into(&ramp, &mut structural);
        for (got, want) in at.mul_vec(&structural).iter().zip(&ramp) {
            assert!((*got - *want).norm() < 1e-9, "{got:?} vs {want:?}");
        }
        // A -0.0 or ±inf right-hand side gets the dense loops' bits.
        for bad in [
            C::new(-0.0, 0.0),
            C::new(0.0, f64::INFINITY),
            C::new(f64::NEG_INFINITY, 1.0),
        ] {
            let mut b = ramp.clone();
            b[12] = bad;
            f.solve_transposed_into(&b, &mut structural);
            f.substitute_transposed(&b, &mut dense, true);
            assert_eq!(bits(&structural), bits(&dense), "rhs entry {bad:?}");
        }
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }
}
