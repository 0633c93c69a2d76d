//! Properties of the Hessenberg–triangular pencil reduction behind the
//! dense AC and noise sweeps (`autockt_sim::linalg::pencil`).
//!
//! - On random pencils of dims 1–40 with a singular `C` (voltage-source
//!   rows carry conductance stamps only) and empty rows: `Q` and `Z` are
//!   orthogonal, `QᵀGZ` is upper Hessenberg and `QᵀCZ` upper triangular,
//!   all to roundoff, with the zeros below the band exact.
//! - A row or column empty in both `G` and `C` makes every point report
//!   `SingularMatrix`, as the per-point LU of `G + jωC` does.
//! - On random RC/VCCS networks, the swept transfer and the noise PSD
//!   match the per-point LU oracle — `AcSolver::solve_sources` for the
//!   transfer, one `AcSolver::factor_at` solve per noise source for the
//!   PSD — to 1e-10 relative.

use autockt_sim::ac::{ac_sweep, log_freqs, AcSolver};
use autockt_sim::complex::Complex;
use autockt_sim::dc::{dc_operating_point, DcOptions};
use autockt_sim::device::BOLTZMANN;
use autockt_sim::linalg::pencil::{HessenbergLu, Pencil};
use autockt_sim::linalg::{LuFactors, Matrix};
use autockt_sim::netlist::{Circuit, Element, Node, GND};
use autockt_sim::noise::noise_analysis;
use autockt_sim::SimError;
use proptest::prelude::*;

/// SplitMix64: a dependency-free generator for the structural choices.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
    /// Log-uniform in [lo, hi).
    fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo * (hi / lo).powf(0.5 * (self.unit() + 1.0))
    }
}

/// A random MNA-shaped pencil of dim `n`: node rows with conductance and
/// capacitance stamps, about a quarter voltage-source rows (±1 coupling
/// in `G`, nothing in `C`), and `empty` rows left empty in both.
fn random_pencil(n: usize, empty: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>) {
    let mut rng = Mix(seed);
    let mut g = Matrix::<f64>::zeros(n, n);
    let mut c = Matrix::<f64>::zeros(n, n);
    let skip: Vec<usize> = (0..empty.min(n)).map(|_| rng.below(n)).collect();
    for r in (0..n).filter(|r| !skip.contains(r)) {
        if rng.below(4) == 0 {
            let col = rng.below(n);
            g[(r, col)] = 1.0;
            g[(col, r)] = 1.0;
            continue;
        }
        g[(r, r)] += rng.log_uniform(1e-5, 1e-2);
        if rng.below(3) != 0 {
            c[(r, r)] += rng.log_uniform(1e-14, 1e-11);
        }
        for _ in 0..3 {
            let col = rng.below(n);
            g[(r, col)] += 1e-3 * rng.unit();
            if rng.below(2) == 0 {
                c[(r, col)] += 1e-12 * rng.unit();
            }
        }
    }
    for &r in &skip {
        for j in 0..n {
            g[(r, j)] = 0.0;
            c[(r, j)] = 0.0;
        }
    }
    (g, c)
}

fn max_abs(m: &[f64]) -> f64 {
    m.iter().fold(0.0f64, |a, v| a.max(v.abs()))
}

/// `AᵀBC` for row-major `n x n` slices.
fn at_b_c(a: &[f64], b: &Matrix<f64>, c: &[f64], n: usize) -> Vec<f64> {
    let mut bc = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            bc[i * n + j] = (0..n).map(|k| b[(i, k)] * c[k * n + j]).sum();
        }
    }
    let mut out = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            out[i * n + j] = (0..n).map(|k| a[k * n + i] * bc[k * n + j]).sum();
        }
    }
    out
}

/// Largest entry of `|MᵀM - I|`.
fn orthogonality_defect(m: &[f64], n: usize) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let dot: f64 = (0..n).map(|k| m[k * n + i] * m[k * n + j]).sum();
            let want = if i == j { 1.0 } else { 0.0 };
            worst = worst.max((dot - want).abs());
        }
    }
    worst
}

/// A random network of `nodes` nodes driven by a 1 V AC source: a
/// resistor chain from the drive through every node, extra resistors,
/// capacitors and VCCSs between random nodes, and side nodes pinned by
/// DC-only voltage sources that load some nodes through a resistor.
/// Returns the circuit and an output node.
fn random_network(nodes: usize, seed: u64) -> (Circuit, Node) {
    let mut rng = Mix(seed);
    let mut ckt = Circuit::new();
    let drive = ckt.node("drive");
    ckt.vsource(drive, GND, 0.0, 1.0);
    let ns: Vec<Node> = (0..nodes).map(|i| ckt.node(&format!("n{i}"))).collect();
    let mut prev = drive;
    for &n in &ns {
        ckt.resistor(prev, n, rng.log_uniform(1e2, 1e5));
        prev = n;
    }
    let pick = |rng: &mut Mix| {
        let k = rng.below(nodes + 1);
        if k == nodes {
            GND
        } else {
            ns[k]
        }
    };
    for _ in 0..nodes {
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        if a != b {
            ckt.resistor(a, b, rng.log_uniform(1e2, 1e5));
        }
        let (a, b) = (pick(&mut rng), pick(&mut rng));
        if a != b {
            ckt.capacitor(a, b, rng.log_uniform(1e-13, 1e-11));
        }
    }
    for &n in &ns {
        if rng.below(3) == 0 {
            ckt.capacitor(n, GND, rng.log_uniform(1e-13, 1e-11));
        }
    }
    for _ in 0..nodes / 3 {
        let (o, cp) = (pick(&mut rng), pick(&mut rng));
        if o != GND && cp != GND {
            ckt.vccs(o, GND, cp, GND, rng.log_uniform(1e-6, 1e-4));
        }
    }
    for (k, &n) in ns.iter().enumerate() {
        if rng.below(4) == 0 {
            let side = ckt.node(&format!("pin{k}"));
            ckt.vsource(side, GND, 0.1 * rng.unit(), 0.0);
            ckt.resistor(side, n, rng.log_uniform(1e3, 1e5));
        }
    }
    (ckt, ns[nodes - 1])
}

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

proptest! {
    /// `Q`, `Z` orthogonal; `QᵀGZ = H` Hessenberg and `QᵀCZ = T`
    /// triangular to roundoff, with exact zeros below the band; a pencil
    /// with an empty row is singular on both paths.
    #[test]
    fn reduction_is_orthogonal_hessenberg_triangular(
        n in 1usize..41,
        empty in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let (g, c) = random_pencil(n, empty, seed);
        let mut p = Pencil::new();
        p.reduce(&g, &c);
        prop_assert_eq!(p.dim(), n);
        let (h, t, q, z) = (p.h(), p.t(), p.q(), p.z());
        let tol = 1e-13 * n as f64;
        prop_assert!(orthogonality_defect(q, n) <= tol, "Q not orthogonal");
        prop_assert!(orthogonality_defect(z, n) <= tol, "Z not orthogonal");
        for i in 0..n {
            for j in 0..i.saturating_sub(1) {
                prop_assert_eq!(h[i * n + j], 0.0, "H({},{}) below the subdiagonal", i, j);
            }
            for j in 0..i {
                prop_assert_eq!(t[i * n + j], 0.0, "T({},{}) below the diagonal", i, j);
            }
        }
        let (gm, cm) = (max_abs(&g_data(&g)), max_abs(&g_data(&c)));
        let hd: Vec<f64> = at_b_c(q, &g, z, n).iter().zip(h).map(|(a, b)| a - b).collect();
        let td: Vec<f64> = at_b_c(q, &c, z, n).iter().zip(t).map(|(a, b)| a - b).collect();
        prop_assert!(max_abs(&hd) <= tol * gm, "QᵀGZ != H by {}", max_abs(&hd));
        prop_assert!(max_abs(&td) <= tol * cm, "QᵀCZ != T by {}", max_abs(&td));

        let has_empty = (0..n).any(|i| (0..n).all(|j| g[(i, j)] == 0.0 && c[(i, j)] == 0.0));
        let w = 2.0 * std::f64::consts::PI * 1e6;
        let mut lu = HessenbergLu::<1>::new();
        p.solve_transposed_lanes(&[w], p.z_row(0), &mut lu);
        let reduced = lu.status(0);
        if has_empty {
            let mut y = Matrix::<Complex>::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    y[(i, j)] = Complex::new(g[(i, j)], w * c[(i, j)]);
                }
            }
            prop_assert!(matches!(reduced, Err(SimError::SingularMatrix { .. })), "{:?}", reduced);
            prop_assert!(matches!(
                LuFactors::factor(y, 1e-300),
                Err(SimError::SingularMatrix { .. })
            ));
        }
    }

    /// The swept transfer and the noise PSD of random networks match the
    /// per-point LU oracle to 1e-10 relative at every grid point.
    #[test]
    fn transfer_and_noise_match_lu_oracle(
        nodes in 1usize..36,
        seed in 0u64..u64::MAX,
    ) {
        let (ckt, out) = random_network(nodes, seed);
        let op = dc_operating_point(&ckt, &DcOptions::default()).expect("linear network solves");
        let solver = AcSolver::new(&ckt, &op);
        let freqs = log_freqs(1e3, 1e10, 4);
        let resp = ac_sweep(&ckt, &op, &freqs, out).expect("reduced sweep");
        let noise = noise_analysis(&ckt, &op, out, &freqs, 300.0).expect("reduced noise");
        let oi = solver.mna_index(out).expect("output is a node");
        for (k, &f) in freqs.iter().enumerate() {
            let x = solver.solve_sources(f).expect("oracle solve");
            let e = (resp.h[k] - x[oi]).norm() / x[oi].norm();
            prop_assert!(e <= 1e-10, "H at {} Hz off by {:e} (dim {})", f, e, solver.dim());
            prop_assert!(rel_err(noise.gain[k], x[oi].norm()) <= 1e-10);

            let lu = solver.factor_at(f).expect("oracle factor");
            let mut psd = 0.0;
            for el in ckt.elements() {
                if let Element::Resistor { p, n, r, noisy: true } = el {
                    let mut u = vec![Complex::ZERO; solver.dim()];
                    if let Some(ip) = solver.mna_index(*p) {
                        u[ip] -= Complex::ONE;
                    }
                    if let Some(in_) = solver.mna_index(*n) {
                        u[in_] += Complex::ONE;
                    }
                    psd += lu.solve(&u)[oi].norm_sqr() * 4.0 * BOLTZMANN * 300.0 / r;
                }
            }
            let e = rel_err(noise.out_psd[k], psd);
            prop_assert!(e <= 1e-10, "noise PSD at {} Hz off by {:e}", f, e);
        }
    }
}

/// Row-major entries of a matrix, for norms.
fn g_data(m: &Matrix<f64>) -> Vec<f64> {
    let n = m.rows();
    (0..n * n).map(|k| m[(k / n, k % n)]).collect()
}

/// A column empty in both `G` and `C` (an unknown nothing depends on)
/// is singular on both paths at every point.
#[test]
fn shared_empty_column_is_singular_on_both_paths() {
    let g = Matrix::from_rows(&[
        vec![1.0, 0.0, 2.0],
        vec![3.0, 0.0, 1.0],
        vec![0.0, 0.0, 1.0],
    ]);
    let c = Matrix::from_rows(&[
        vec![1.0, 0.0, 0.0],
        vec![0.0, 0.0, 1.0],
        vec![0.0, 0.0, 0.0],
    ]);
    let mut p = Pencil::new();
    p.reduce(&g, &c);
    let mut lu = HessenbergLu::<1>::new();
    for w in [1.0, 1e3, 1e9] {
        p.solve_transposed_lanes(&[w], p.z_row(2), &mut lu);
        let r = lu.status(0);
        assert!(matches!(r, Err(SimError::SingularMatrix { .. })), "{r:?}");
        let mut y = Matrix::<Complex>::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                y[(i, j)] = Complex::new(g[(i, j)], w * c[(i, j)]);
            }
        }
        let oracle = LuFactors::factor(y, 1e-300).map(|_| ());
        assert!(
            matches!(oracle, Err(SimError::SingularMatrix { .. })),
            "{oracle:?}"
        );
    }
}
