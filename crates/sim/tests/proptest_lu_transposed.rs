//! Property: `LuFactors::solve_transposed_into` solves `Aᵀx = b` from the
//! factors of `A`, matching an independent factorization of the
//! explicitly transposed matrix, `LuFactors::factor(Aᵀ).solve(b)`, to
//! 1e-10 relative.
//!
//! The systems are MNA-shaped: a grounded conductance Laplacian over the
//! nodes, a few transconductances that break its symmetry, and voltage
//! sources whose branch rows and columns carry `±1` and a zero diagonal,
//! so the factorization must pivot. Dimensions run from 1 to 70, across
//! the 64-column word of the factorization's row bitsets. Complex systems
//! add `jω` times a capacitance Laplacian.

use autockt_sim::complex::Complex;
use autockt_sim::linalg::{LuFactors, Matrix, Scalar};
use proptest::prelude::*;

/// SplitMix64 stream: every entry of a case derives from one seed.
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

    /// Log-uniform in `[lo, hi)`.
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }
}

/// Stamps a two-terminal admittance `y` between nodes `a` and `b`
/// (`None` is ground).
fn stamp<T: Scalar>(m: &mut Matrix<T>, a: Option<usize>, b: Option<usize>, y: T) {
    if let Some(a) = a {
        m[(a, a)] += y;
    }
    if let Some(b) = b {
        m[(b, b)] += y;
    }
    if let (Some(a), Some(b)) = (a, b) {
        m[(a, b)] -= y;
        m[(b, a)] -= y;
    }
}

/// A random MNA system of dimension `n`: `nodes` node rows plus `n -
/// nodes` voltage-source branch rows. `admittance(g, c)` maps a
/// conductance and a capacitance to the system scalar.
fn mna_system<T: Scalar>(rng: &mut Gen, n: usize, admittance: impl Fn(f64, f64) -> T) -> Matrix<T> {
    let sources = rng.below(n / 4 + 1);
    let nodes = n - sources;
    let mut m = Matrix::<T>::zeros(n, n);
    let pick = |rng: &mut Gen| {
        let k = rng.below(nodes + 1);
        (k < nodes).then_some(k)
    };
    for k in 0..nodes {
        // Every node reaches ground, so the node block is nonsingular.
        let g = rng.log_uniform(0.2, 1.0);
        stamp(
            &mut m,
            Some(k),
            None,
            admittance(g, rng.log_uniform(0.1, 1.0)),
        );
    }
    for _ in 0..2 * nodes {
        let (a, b) = (pick(rng), pick(rng));
        if a != b {
            let (g, c) = (rng.log_uniform(0.1, 10.0), rng.log_uniform(0.1, 10.0));
            stamp(&mut m, a, b, admittance(g, c));
        }
    }
    for _ in 0..nodes / 3 {
        // A transconductance from node `c` into node `o`.
        let (o, c) = (rng.below(nodes), rng.below(nodes));
        m[(o, c)] += admittance(rng.log_uniform(0.005, 0.05), 0.0);
    }
    // Source `s` ties node `p` to `q`, a lower-numbered node or ground:
    // distinct `p`s and `q < p` keep the sources loop-free.
    let mut used = vec![false; nodes];
    for s in 0..sources {
        let mut p = rng.below(nodes);
        while used[p] {
            p = (p + 1) % nodes;
        }
        used[p] = true;
        let q = (p > 0 && rng.unit() < 0.5).then(|| rng.below(p));
        let row = nodes + s;
        m[(p, row)] = T::one();
        m[(row, p)] = T::one();
        if let Some(q) = q {
            m[(q, row)] = -T::one();
            m[(row, q)] = -T::one();
        }
    }
    m
}

fn transpose<T: Scalar>(m: &Matrix<T>) -> Matrix<T> {
    let n = m.rows();
    let mut t = Matrix::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            t[(c, r)] = m[(r, c)];
        }
    }
    t
}

/// Largest componentwise deviation of `x` from `reference`, relative to
/// the largest component of `reference`.
fn rel_dev<T: Scalar>(x: &[T], reference: &[T]) -> f64 {
    let scale = reference.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let dev = x
        .iter()
        .zip(reference)
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0, f64::max);
    dev / scale.max(f64::MIN_POSITIVE)
}

/// Right-hand sides of one case: a unit vector (the output selector of an
/// adjoint solve) and a dense random vector.
fn rhs<T: Scalar>(rng: &mut Gen, n: usize, value: impl Fn(&mut Gen) -> T) -> Vec<Vec<T>> {
    let mut unit = vec![T::zero(); n];
    unit[rng.below(n)] = T::one();
    vec![unit, (0..n).map(|_| value(rng)).collect()]
}

/// Checks one system: transposed solve against the factored transpose.
fn check<T: Scalar>(a: &Matrix<T>, bs: &[Vec<T>]) -> Result<(), String> {
    let f = LuFactors::factor(a.clone(), 1e-300).map_err(|e| format!("factor: {e:?}"))?;
    let ft = LuFactors::factor(transpose(a), 1e-300).map_err(|e| format!("factor Aᵀ: {e:?}"))?;
    let mut x = Vec::new();
    for b in bs {
        f.solve_transposed_into(b, &mut x);
        let dev = rel_dev(&x, &ft.solve(b));
        if dev > 1e-10 {
            return Err(format!("dim {}: deviation {dev:e}", a.rows()));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn real_transposed_solve_matches_factored_transpose(
        n in 1usize..71,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Gen(seed);
        let a = mna_system(&mut rng, n, |g, _| g);
        let bs = rhs(&mut rng, n, |r| 2.0 * r.unit() - 1.0);
        let r = check(&a, &bs);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn complex_transposed_solve_matches_factored_transpose(
        n in 1usize..71,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Gen(seed);
        // ω scales the capacitances from mostly resistive to mostly
        // reactive.
        let w = rng.log_uniform(1e-2, 1e2);
        let a = mna_system(&mut rng, n, |g, c| Complex::new(g, w * c));
        let bs = rhs(&mut rng, n, |r| Complex::new(2.0 * r.unit() - 1.0, r.unit() - 0.5));
        let r = check(&a, &bs);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}
