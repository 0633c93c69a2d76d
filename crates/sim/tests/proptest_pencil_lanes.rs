//! The lockstep lane kernel of the Hessenberg point solve
//! (`Pencil::solve_transposed_lanes`) against the one-point kernel it
//! replaced, kept below verbatim as the oracle (`oracle_solve`).
//!
//! - On MNA-shaped random pencils of dims 1–40 (voltage-source rows with
//!   conductance stamps only, and empty rows): every lane of a
//!   `LANES`-wide solve is bitwise the oracle at its ω, its status is the
//!   oracle's result (the same `SingularMatrix` column where it fails), and
//!   its dots are bitwise the one-point folds. Some lanes get hostile ω
//!   (0, negative, 1e300, ∞, NaN) that overflow or poison only their own
//!   lane. A row or column empty in both `G` and `C` fails every lane, and
//!   the one-lane instance `solve_transposed_lanes::<1>` is the oracle
//!   too.
//! - On pencils built so that one ω = 0 lane is exactly singular: that lane
//!   reports the oracle's column, and its neighbours stay bitwise.
//! - On random RC/VCCS networks over grids of 1–9 points (lengths that
//!   leave spare lanes in the last pass): the one-corner `ac_sweep_corners`
//!   with no stop and with each `StopLevel`, and the one-corner
//!   `noise_analysis_corners` (both run the scalar kernel), equal a
//!   per-point loop over the oracle with the same stop rule, bitwise,
//!   including which error is returned; a noise grid of one point is
//!   rejected before any point is solved. Grids may end in huge frequencies:
//!   a grid where `2πf` overflows is rejected as `InvalidOptions` before
//!   any point is solved, a failing point past the stop never fails the
//!   sweep, and a spare lane never shows in a result.
//!   `crossing_lands_on_every_lane_slot` checks that the stop and the
//!   rejection occur; `a_failing_point_past_the_stop_is_never_read` builds
//!   a point that fails at a finite `2πf` past the stop.

use autockt_sim::ac::{ac_sweep_corners, AcSolver, AcWorkspace, StopLevel};
use autockt_sim::complex::Complex;
use autockt_sim::dc::{dc_operating_point, DcOptions};
use autockt_sim::device::BOLTZMANN;
use autockt_sim::linalg::pencil::{HessenbergLu, Pencil, LANES};
use autockt_sim::linalg::{Matrix, Scalar};
use autockt_sim::netlist::{Circuit, Element, Node, GND};
use autockt_sim::noise::{noise_analysis_corners, GAIN_FLOOR_REL};
use autockt_sim::SimError;
use proptest::prelude::*;

const PIVOT_FLOOR: f64 = 1e-300;

/// The one-point transposed Hessenberg solve the lane kernel replaced,
/// verbatim but for reading the pencil through its accessors (`empty` is
/// the pencil's first empty row or column, see [`first_empty`]).
fn oracle_solve(
    p: &Pencil,
    empty: Option<usize>,
    w: f64,
    c: &[f64],
) -> Result<Vec<Complex>, SimError> {
    let n = p.dim();
    let (h, t) = (p.h(), p.t());
    if let Some(column) = empty {
        return Err(SimError::SingularMatrix { column });
    }
    let mut a = vec![Complex::ZERO; n * n];
    for i in 0..n {
        let lo = i.saturating_sub(1);
        let (hr, tr) = (&h[i * n..(i + 1) * n], &t[i * n..(i + 1) * n]);
        for j in lo..n {
            a[i * n + j] = Complex::new(hr[j], w * tr[j]);
        }
    }
    let mut l = vec![Complex::ZERO; n];
    let mut swap = vec![false; n];
    let mut inv = vec![Complex::ZERO; n];
    for k in 0..n {
        if k + 1 < n && a[(k + 1) * n + k].abs_gt(a[k * n + k]) {
            let (top, bottom) = a.split_at_mut((k + 1) * n);
            top[k * n + k..].swap_with_slice(&mut bottom[k..n]);
            swap[k] = true;
        }
        let p = a[k * n + k];
        if p.below_floor(PIVOT_FLOOR) {
            return Err(SimError::SingularMatrix { column: k });
        }
        inv[k] = p.recip();
        if k + 1 < n {
            let (top, bottom) = a.split_at_mut((k + 1) * n);
            let m = bottom[k] * inv[k];
            l[k] = m;
            for (x, &u) in bottom[k + 1..n].iter_mut().zip(&top[k * n + k + 1..]) {
                *x -= m * u;
            }
        }
    }
    let mut v = vec![Complex::ZERO; n];
    for k in 0..n {
        let mut s = Complex::from_re(c[k]);
        for i in 0..k {
            s -= a[i * n + k] * v[i];
        }
        v[k] = s * inv[k];
    }
    for k in (0..n.saturating_sub(1)).rev() {
        let next = v[k + 1];
        v[k] -= l[k] * next;
        if swap[k] {
            v.swap(k, k + 1);
        }
    }
    Ok(v)
}

/// The oracle's one-point dots, as the sweeps took them.
fn oracle_dot(v: &[Complex], x: &[Complex]) -> Complex {
    v.iter().zip(x).fold(Complex::ZERO, |s, (&a, &b)| s + a * b)
}

fn oracle_dot_re(v: &[Complex], x: &[f64]) -> Complex {
    v.iter().zip(x).fold(Complex::ZERO, |s, (&a, &b)| s + a * b)
}

/// The first row or column empty in both `g` and `c`, found as
/// `Pencil::reduce` finds it.
fn first_empty(g: &Matrix<f64>, c: &Matrix<f64>) -> Option<usize> {
    let n = g.rows();
    let nz = |i: usize, j: usize| g[(i, j)] != 0.0 || c[(i, j)] != 0.0;
    (0..n).find(|&i| (0..n).all(|j| !nz(i, j)) || (0..n).all(|r| !nz(r, i)))
}

fn bits(v: Complex) -> (u64, u64) {
    (v.re.to_bits(), v.im.to_bits())
}

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

/// One lane's angular frequency: mostly log-uniform over the sweeps'
/// range, sometimes a hostile value that overflows, poisons or zeroes
/// only its own lane.
fn lane_omega(rng: &mut Mix) -> f64 {
    match rng.below(12) {
        0 => 0.0,
        1 => -rng.log_uniform(1e3, 1e12),
        2 => rng.log_uniform(1e290, 1e300),
        3 => f64::INFINITY,
        4 => f64::NAN,
        _ => rng.log_uniform(1e-2, 1e14),
    }
}

/// Solves `ws` on one pass and checks every lane against the oracle:
/// status, solution and dots bitwise. Returns how many lanes failed.
fn check_lanes(
    p: &Pencil,
    empty: Option<usize>,
    ws: &[f64; LANES],
    c: &[f64],
    lu: &mut HessenbergLu<LANES>,
) -> usize {
    p.solve_transposed_lanes(ws, c, lu);
    let n = p.dim();
    let x: Vec<Complex> = (0..n)
        .map(|i| Complex::new(c[(i + 1) % n], -c[i]))
        .collect();
    let (dots, dots_re) = (lu.dot(&x), lu.dot_re(c));
    let mut failed = 0;
    for (lane, &w) in ws.iter().enumerate() {
        match (oracle_solve(p, empty, w, c), lu.status(lane)) {
            (Ok(v), Ok(())) => {
                let got: Vec<_> = lu.solution(lane).map(bits).collect();
                let want: Vec<_> = v.iter().map(|&z| bits(z)).collect();
                assert_eq!(got, want, "lane {lane} at w = {w:e} (dim {n})");
                assert_eq!(
                    bits(dots[lane]),
                    bits(oracle_dot(&v, &x)),
                    "lane {lane} dot"
                );
                assert_eq!(
                    bits(dots_re[lane]),
                    bits(oracle_dot_re(&v, c)),
                    "lane {lane} dot_re"
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "lane {lane} at w = {w:e}");
                failed += 1;
            }
            (a, b) => panic!("lane {lane} at w = {w:e} (dim {n}): oracle {a:?}, lanes {b:?}"),
        }
    }
    failed
}

proptest! {
    /// Every lane is bitwise the oracle at its ω, on MNA-shaped pencils
    /// with voltage-source rows and empty rows; an empty row or column
    /// fails every lane; the one-lane instance is the oracle too.
    #[test]
    fn every_lane_is_bitwise_the_one_point_solve(
        n in 1usize..41,
        empty in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let (g, c) = random_pencil(n, empty, seed);
        let mut p = Pencil::new();
        p.reduce(&g, &c);
        let empty = first_empty(&g, &c);
        let mut rng = Mix(seed ^ 0x5eed);
        let mut lu = HessenbergLu::<LANES>::new();
        // Two passes on one scratch with two right-hand sides: nothing of
        // the first pass may reach the second.
        for row in [0, n - 1] {
            let ws: [f64; LANES] = std::array::from_fn(|_| lane_omega(&mut rng));
            let failed = check_lanes(&p, empty, &ws, p.z_row(row), &mut lu);
            if let Some(column) = empty {
                prop_assert_eq!(failed, LANES);
                for lane in 0..LANES {
                    prop_assert_eq!(lu.status(lane), Err(SimError::SingularMatrix { column }));
                }
            }
        }
        let mut one = HessenbergLu::<1>::new();
        let w = rng.log_uniform(1e-2, 1e14);
        p.solve_transposed_lanes(&[w], p.z_row(0), &mut one);
        match (oracle_solve(&p, empty, w, p.z_row(0)), one.status(0)) {
            (Ok(v), Ok(())) => {
                let got: Vec<_> = one.solution(0).map(bits).collect();
                let want: Vec<_> = v.iter().map(|&z| bits(z)).collect();
                prop_assert_eq!(got, want);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => panic!("one lane at w = {w:e}: oracle {a:?}, kernel {b:?}"),
        }
    }

    /// A lane that is singular alone reports the oracle's column while
    /// its neighbours stay bitwise. `G` is upper Hessenberg with one zero
    /// column and `C` upper triangular with power-of-two diagonal entries,
    /// so the reduction only flips signs, exactly, and the ω = 0 lane's
    /// `H` keeps that zero column.
    #[test]
    fn a_singular_lane_fails_alone(
        n in 1usize..41,
        lane in 0usize..LANES,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Mix(seed);
        let zero_col = rng.below(n);
        let mut g = Matrix::<f64>::zeros(n, n);
        let mut c = Matrix::<f64>::zeros(n, n);
        for i in 0..n {
            c[(i, i)] = [1.0, -2.0, 0.5, 4.0][rng.below(4)];
            for j in i + 1..n {
                if rng.below(3) == 0 {
                    c[(i, j)] = 1e-12 * rng.unit();
                }
            }
            for j in i.saturating_sub(1)..n {
                if j != zero_col {
                    g[(i, j)] = rng.log_uniform(1e-5, 1e-2) * rng.unit().signum();
                }
            }
        }
        let mut p = Pencil::new();
        p.reduce(&g, &c);
        let empty = first_empty(&g, &c);
        prop_assert_eq!(empty, None);
        let mut ws: [f64; LANES] = std::array::from_fn(|_| rng.log_uniform(1e3, 1e12));
        ws[lane] = 0.0;
        let out = p.z_row(rng.below(n));
        prop_assert!(
            matches!(oracle_solve(&p, empty, 0.0, out), Err(SimError::SingularMatrix { column }) if column <= zero_col),
            "the ω = 0 lane is not singular"
        );
        // The others are dominated by ωT and solve.
        let mut lu = HessenbergLu::<LANES>::new();
        prop_assert_eq!(check_lanes(&p, empty, &ws, out, &mut lu), 1);
        prop_assert!(lu.status(lane).is_err());
    }

    /// The AC sweep and the noise analysis equal a per-point loop over
    /// the oracle, with every stop rule, on grids of 1–9 points.
    #[test]
    fn sweeps_equal_the_per_point_oracle_loop(
        nodes in 1usize..20,
        len in 1usize..10,
        seed in 0u64..u64::MAX,
    ) {
        check_sweeps(nodes, len, seed);
    }
}

/// What one [`check_sweeps`] case exercised.
#[derive(Default)]
struct Seen {
    /// The lane slot (`index % LANES`) of each stopped sweep's last point.
    stop_slots: Vec<usize>,
    /// A failing point past the stop that the stopped sweep never read.
    failure_skipped: bool,
    /// An error a sweep returned from a lane other than the first.
    error_returned: bool,
    /// A grid rejected because its `2πf` overflows.
    grid_rejected: bool,
}

/// A random network of `nodes` nodes driven by a 1 V AC source: a
/// resistor chain from the drive through every node, extra resistors,
/// capacitors and VCCSs between random nodes, and side nodes pinned by
/// DC-only voltage sources that load some nodes through a resistor.
/// Returns the circuit and an output node.
fn random_network(nodes: usize, rng: &mut Mix) -> (Circuit, Node) {
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
        let (a, b) = (pick(rng), pick(rng));
        if a != b {
            ckt.resistor(a, b, rng.log_uniform(1e2, 1e5));
        }
        let (a, b) = (pick(rng), pick(rng));
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
        let (o, cp) = (pick(rng), pick(rng));
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

/// A strictly increasing grid of at most `len` points across the
/// networks' poles. About a third of the grids end in frequencies so
/// large that `2πf` may overflow, which invalidates the grid.
fn random_grid(len: usize, rng: &mut Mix) -> Vec<f64> {
    let mut f = rng.log_uniform(1e2, 1e8);
    let mut grid: Vec<f64> = (0..len)
        .map(|_| {
            let at = f;
            f *= rng.log_uniform(1.5, 30.0);
            at
        })
        .collect();
    if rng.below(3) == 0 {
        let tail = 1 + rng.below(len);
        let mut big = rng.log_uniform(1e306, 1e308);
        for g in grid.iter_mut().skip(len - tail) {
            *g = big;
            big *= rng.log_uniform(1.5, 30.0);
        }
        grid.retain(|g| g.is_finite());
    }
    grid
}

/// The sweep's stop test, a test-local copy of the rule `StopLevel`
/// documents: the level resolves on the first point; the sweep stops
/// after the second point if the first is below the level, else after
/// the first point `j` with `|H(f_{j-1})| >= level > |H(f_j)|`.
fn stops_after(stop: StopLevel, h: &[Complex]) -> bool {
    let level = match stop {
        StopLevel::Absolute(l) => l,
        StopLevel::RelativeToFirst(r) => h[0].norm() * r,
    };
    match h.len() {
        0 | 1 => false,
        2 if h[0].norm() < level => true,
        k => h[k - 2].norm() >= level && h[k - 1].norm() < level,
    }
}

/// The grid check the sweeps make before solving any point: a grid whose
/// largest angular frequency `2πf` overflows is an invalid option.
fn check_omegas(freqs: &[f64]) -> Result<(), SimError> {
    let top = freqs.iter().fold(0.0f64, |m, &f| m.max(f));
    if (2.0 * std::f64::consts::PI * top).is_finite() {
        Ok(())
    } else {
        Err(SimError::InvalidOptions {
            what: "angular frequency 2πf overflows",
        })
    }
}

/// The per-point oracle sweep: one oracle solve and dot per point, in
/// grid order, ending at the first error or after the stop.
fn oracle_ac_sweep(
    p: &Pencil,
    empty: Option<usize>,
    zo: &[f64],
    qb: &[Complex],
    freqs: &[f64],
    stop: Option<StopLevel>,
) -> Result<Vec<Complex>, SimError> {
    check_omegas(freqs)?;
    let mut h = Vec::new();
    for &f in freqs {
        let w = 2.0 * std::f64::consts::PI * f;
        h.push(oracle_dot(&oracle_solve(p, empty, w, zo)?, qb));
        if stop.is_some_and(|s| stops_after(s, &h)) {
            break;
        }
    }
    Ok(h)
}

/// Whether the noise analysis' finalisation rejects these samples: a
/// non-finite sample, no positive gain, or no segment whose endpoints
/// both clear the gain floor.
fn finalize_rejects(psd: &[f64], gain: &[f64]) -> bool {
    let max_gain = gain.iter().cloned().fold(0.0f64, f64::max);
    let floor = GAIN_FLOOR_REL * max_gain;
    !psd.iter().chain(gain).all(|v| v.is_finite())
        || max_gain <= 0.0
        || !max_gain.is_finite()
        || (gain.len() > 1 && !gain.windows(2).any(|g| g[0] > floor && g[1] > floor))
}

/// Checks one random network and grid (see [`check_network`]).
fn check_sweeps(nodes: usize, len: usize, seed: u64) -> Seen {
    let mut rng = Mix(seed);
    let (ckt, out) = random_network(nodes, &mut rng);
    let freqs = random_grid(len, &mut rng);
    check_network(&ckt, out, &freqs)
}

/// Checks one network and grid: the AC sweep without a stop and with
/// each stop rule, and the noise analysis, against the oracle loop.
fn check_network(ckt: &Circuit, out: Node, freqs: &[f64]) -> Seen {
    let op = dc_operating_point(ckt, &DcOptions::default()).expect("linear network solves");
    let solver = AcSolver::new(ckt, &op);
    let (g, c) = solver.stamps();
    let mut p = Pencil::new();
    p.reduce(g, c);
    let empty = first_empty(g, c);
    let mut qb = Vec::new();
    p.project(solver.source_rhs(), &mut qb);
    let oi = solver.mna_index(out).expect("output is a node");
    let zo = p.z_row(oi).to_vec();
    let mut ws = AcWorkspace::new();
    let mut seen = Seen::default();

    let full = oracle_ac_sweep(&p, empty, &zo, &qb, freqs, None);
    // Levels that put the crossing on each point of the grid in turn,
    // where the magnitude falls there.
    let mags: Vec<f64> = full
        .as_ref()
        .map_or_else(|_| Vec::new(), |h| h.iter().map(|v| v.norm()).collect());
    let mut stops = vec![
        None,
        Some(StopLevel::RelativeToFirst(std::f64::consts::FRAC_1_SQRT_2)),
        Some(StopLevel::Absolute(1.0)),
    ];
    for j in 1..mags.len() {
        if mags[j - 1] > mags[j] {
            stops.push(Some(StopLevel::Absolute(0.5 * (mags[j - 1] + mags[j]))));
        }
    }
    for stop in stops {
        let want = oracle_ac_sweep(&p, empty, &zo, &qb, freqs, stop);
        let got = ac_sweep_corners(std::slice::from_ref(&solver), freqs, &[out], stop, &mut ws)
            .remove(0)
            .map(|r| r.h);
        match (&want, &got) {
            (Ok(a), Ok(b)) => {
                let (a, b): (Vec<_>, Vec<_>) = (
                    a.iter().map(|&z| bits(z)).collect(),
                    b.iter().map(|&z| bits(z)).collect(),
                );
                assert_eq!(a, b, "{stop:?} on {freqs:?}");
                if stop.is_some() && a.len() < freqs.len() {
                    seen.stop_slots.push((a.len() - 1) % LANES);
                    seen.failure_skipped |= full.is_err();
                }
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{stop:?} on {freqs:?}");
                if matches!(a, SimError::InvalidOptions { .. }) {
                    seen.grid_rejected = true;
                    continue;
                }
                let at = freqs.iter().position(|&f| {
                    oracle_solve(&p, empty, 2.0 * std::f64::consts::PI * f, &zo).is_err()
                });
                seen.error_returned |= at.is_some_and(|i| i % LANES != 0);
            }
            _ => panic!("{stop:?} on {freqs:?}: oracle {want:?}, sweep {got:?}"),
        }
    }

    // Noise: every noisy resistor, in element order, as the analysis
    // enumerates its sources.
    let temp_k = 300.0;
    let dim = solver.dim();
    let mut sources = Vec::new();
    for el in ckt.elements() {
        if let Element::Resistor {
            p: a,
            n: b,
            r,
            noisy: true,
        } = el
        {
            let mut u = vec![0.0; dim];
            if let Some(ip) = solver.mna_index(*a) {
                u.iter_mut().zip(p.q_row(ip)).for_each(|(x, q)| *x -= q);
            }
            if let Some(in_) = solver.mna_index(*b) {
                u.iter_mut().zip(p.q_row(in_)).for_each(|(x, q)| *x += q);
            }
            sources.push((u, 4.0 * BOLTZMANN * temp_k / r));
        }
    }
    let want: Result<(Vec<f64>, Vec<f64>), SimError> = check_omegas(freqs).and_then(|()| {
        if freqs.len() < 2 {
            return Err(SimError::InvalidOptions {
                what: "noise grid needs at least two frequency points",
            });
        }
        freqs
            .iter()
            .map(|&f| {
                let w = 2.0 * std::f64::consts::PI * f;
                let v = oracle_solve(&p, empty, w, &zo)?;
                let mut psd = 0.0;
                for (u, white) in &sources {
                    psd += oracle_dot_re(&v, u).norm_sqr() * (white + 0.0 / f.max(1e-3));
                }
                Ok((oracle_dot(&v, &qb).norm(), psd))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(|pts| pts.into_iter().unzip())
    });
    let got = noise_analysis_corners(
        std::slice::from_ref(&solver),
        &[&op],
        &[out],
        freqs,
        &[temp_k],
        &mut ws,
    )
    .remove(0);
    match (&want, &got) {
        (Ok((gain, psd)), Ok(r)) => {
            let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(b(gain), b(&r.gain), "noise gain on {freqs:?}");
            assert_eq!(b(psd), b(&r.out_psd), "noise PSD on {freqs:?}");
        }
        (Ok((gain, psd)), Err(SimError::MeasureFailed { .. })) => {
            assert!(finalize_rejects(psd, gain), "noise on {freqs:?}: {got:?}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "noise on {freqs:?}"),
        _ => panic!("noise on {freqs:?}: oracle {want:?}, analysis {got:?}"),
    }
    seen
}

/// The seeded sweep cases reach what the properties are about: a stop on
/// every lane slot of a pass, and a grid rejected for its overflowing
/// `2πf`. On these networks every point of a valid grid solves, so a
/// failing point past the stop and an error from a later lane are
/// [`a_failing_point_past_the_stop_is_never_read`]'s case.
#[test]
fn crossing_lands_on_every_lane_slot() {
    let mut slots = [0usize; LANES];
    let mut rejected = false;
    for seed in 0..200u64 {
        let seen = check_sweeps(1 + (seed as usize % 12), 1 + (seed as usize % 9), seed);
        for s in seen.stop_slots {
            slots[s] += 1;
        }
        rejected |= seen.grid_rejected;
    }
    assert!(slots.iter().all(|&k| k > 0), "stop slots {slots:?}");
    assert!(rejected, "no grid rejected for an overflowing 2πf");
}

/// A point can fail at a finite `2πf`: a 100 F capacitor at 1e306 Hz
/// stamps `ωC` past `f64::MAX`. On an RC low-pass whose -3 dB crossing
/// is the second point, that point is the fourth lane of the first pass.
/// The stopped sweep returns the two points before it, and the unstopped
/// sweep and the noise analysis return its error, as the oracle loop
/// does.
#[test]
fn a_failing_point_past_the_stop_is_never_read() {
    let mut ckt = Circuit::new();
    let drive = ckt.node("drive");
    let out = ckt.node("out");
    ckt.vsource(drive, GND, 0.0, 1.0);
    ckt.resistor(drive, out, 1e3);
    ckt.capacitor(out, GND, 100.0);
    // f_3db = 1/(2π·1e5 s) ≈ 1.6e-6 Hz.
    let freqs = [1e-7, 1e-5, 1e-4, 1e306];
    let seen = check_network(&ckt, out, &freqs);
    assert!(seen.failure_skipped, "no failing point past a stop");
    assert!(
        seen.error_returned,
        "the failing lane's error was not returned"
    );
}
