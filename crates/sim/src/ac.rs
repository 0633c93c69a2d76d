//! Small-signal AC analysis.
//!
//! The circuit is linearized at a DC operating point ([`crate::dc`]) into
//! real `G` and `C` matrices, assembled once per linearization. The
//! pencil `(G, C)` is then reduced once to Hessenberg–triangular form
//! ([`crate::linalg::pencil`]), and every frequency point of a sweep is
//! one O(n²) transposed Hessenberg solve from the output row plus a dot
//! product with the projected source vector, solved
//! [`crate::linalg::pencil::LANES`] grid points per lockstep pass.
//! [`AcSolver::factor_at`] / [`AcSolver::solve_sources`] keep the plain
//! per-point dense LU: the oracle the reduced sweeps are tested against.
//! The warm corner sweep ([`ac_sweep_corners`]) factors per point too: at
//! dense dims it shares one adjoint row per point with the corner noise
//! analysis (`CornerSet`), one base factorization plus a small Woodbury
//! correction per corner.
//!
//! The public [`ac_sweep`] / [`ac_sweep_ws`] solve every grid point. The
//! evaluation sweeps ([`AcSolver::solve_sources_batch_ws`] and
//! [`ac_sweep_corners`] with a [`StopLevel`]) are measure-driven: every
//! AC spec reads a prefix of the grid (the DC gain point 0, `ugbw` and
//! `f_3db` the first downward crossing of their level), so they stop
//! after the point that completes that crossing and return the solved
//! prefix. The specs measured on it are bitwise those of the full sweep.

use crate::complex::Complex;
use crate::dc::OpPoint;
use crate::error::SimError;
use crate::linalg::correction::{factor_correction, CornerDiff};
use crate::linalg::pencil::{HessenbergLu, Pencil, LANES};
use crate::linalg::{LuFactors, Matrix};
use crate::netlist::{Circuit, Element, Node};

/// What a sweep shares across its points, computed once per
/// [`AcSolver::prepare_workspace`]: the reduced pencil, the projected
/// source vector `Qᵀb`, the output row of `Z`, and (noise analyses) the
/// projected noise injections. Read-only during the sweep.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reduced {
    pub(crate) pencil: Pencil,
    /// `Qᵀ b` for the solver's AC source vector.
    pub(crate) qb: Vec<Complex>,
    /// `Zᵀ e_out`, or zeros when the output is ground.
    pub(crate) zo: Vec<f64>,
    /// `Qᵀ u_s` of each noise injection `u_s`, `n` entries per source.
    pub(crate) proj: Vec<f64>,
}

/// Reusable buffers for repeated sweeps: the per-operating-point
/// reduction and the Hessenberg scratch of [`LANES`] points in lockstep.
/// A whole sweep (and consecutive sweeps of a warm evaluation session)
/// performs no per-point allocation.
#[derive(Debug, Clone, Default)]
pub struct AcWorkspace {
    pub(crate) red: Reduced,
    pub(crate) hess: HessenbergLu<LANES>,
}

impl AcWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        AcWorkspace::default()
    }
}

/// Reusable buffers for the corner sweeps ([`ac_sweep_corners`] and
/// [`crate::noise::noise_analysis_corners`]): one stamp pattern per
/// corner, the scratch of the shared adjoint row (`CornerSet`), and a
/// scalar workspace for the per-corner fallbacks.
#[derive(Debug, Clone, Default)]
pub struct AcBatchWorkspace {
    /// Each corner's `(row, col, g, c)` stamp pattern.
    pub(crate) patterns: Vec<Vec<(usize, usize, f64, f64)>>,
    /// The base corner's factor at the current frequency point.
    pub(crate) base: LuFactors<Complex>,
    /// A corner's own factor, for the per-point direct fallback.
    pub(crate) spare: LuFactors<Complex>,
    /// One corner's factored `|R| x |R|` correction `S_b = I + N_b W`.
    pub(crate) small: LuFactors<Complex>,
    /// The base adjoint `z = A0⁻ᵀ e_out`.
    pub(crate) z: Vec<Complex>,
    /// A unit right-hand side `e_c`.
    pub(crate) unit: Vec<Complex>,
    /// A corner's own adjoint, from the direct fallback.
    pub(crate) xcol: Vec<Complex>,
    /// The correction basis `W`, column-major (`wflat[j*n + c]` is
    /// `W[c][j]`); only the columns in the difference column support are
    /// filled.
    pub(crate) wflat: Vec<Complex>,
    /// The column adjoints `V_c = A0⁻ᵀ e_c`, one per column `c` of the
    /// difference column support, `n` entries each.
    pub(crate) adj: Vec<Complex>,
    /// `z|_R`, the base adjoint on the support rows.
    pub(crate) zr: Vec<Complex>,
    /// `S_b⁻ᵀ z|_R` (and a column solve's scratch before it).
    pub(crate) sr: Vec<Complex>,
    /// One corner's weights `q_b = N_bᵀ S_b⁻ᵀ z|_R`.
    pub(crate) q: Vec<Complex>,
    /// Scalar-path workspace for the per-corner fallbacks (mismatched
    /// structures, stock dims).
    pub(crate) scalar: AcWorkspace,
}

impl AcBatchWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        AcBatchWorkspace::default()
    }
}

/// A reusable small-signal solver bound to a circuit and operating point.
#[derive(Debug)]
pub struct AcSolver<'a> {
    ckt: &'a Circuit,
    g: Matrix<f64>,
    c: Matrix<f64>,
    rhs: Vec<Complex>,
    dim: usize,
}

impl<'a> AcSolver<'a> {
    /// Builds the small-signal stamps for `ckt` linearized at `op`.
    pub fn new(ckt: &'a Circuit, op: &OpPoint) -> Self {
        let dim = ckt.mna_dim();
        let nnodes = ckt.num_nodes();
        let mut g = Matrix::zeros(dim, dim);
        let mut c = Matrix::zeros(dim, dim);
        let mut rhs = vec![Complex::ZERO; dim];
        let idx = |n: Node| ckt.mna_index(n);

        // Same gmin regularization as the DC solve keeps conditioning
        // consistent between analyses.
        for i in 0..(nnodes - 1) {
            g[(i, i)] += 1e-12;
        }

        let stamp_g = |m: &mut Matrix<f64>, p: Node, n: Node, val: f64| {
            if let Some(ip) = idx(p) {
                m[(ip, ip)] += val;
                if let Some(in_) = idx(n) {
                    m[(ip, in_)] -= val;
                }
            }
            if let Some(in_) = idx(n) {
                m[(in_, in_)] += val;
                if let Some(ip) = idx(p) {
                    m[(in_, ip)] -= val;
                }
            }
        };
        let stamp_vccs = |m: &mut Matrix<f64>, op_: Node, on: Node, cp: Node, cn: Node, gm: f64| {
            if let Some(io) = idx(op_) {
                if let Some(icp) = idx(cp) {
                    m[(io, icp)] += gm;
                }
                if let Some(icn) = idx(cn) {
                    m[(io, icn)] -= gm;
                }
            }
            if let Some(io) = idx(on) {
                if let Some(icp) = idx(cp) {
                    m[(io, icp)] -= gm;
                }
                if let Some(icn) = idx(cn) {
                    m[(io, icn)] += gm;
                }
            }
        };

        let mut vk = 0usize;
        let mut mos_iter = op.mosfets().iter();
        for e in ckt.elements() {
            match e {
                Element::Resistor { p, n, r, .. } => stamp_g(&mut g, *p, *n, 1.0 / r),
                Element::Capacitor { p, n, c: cap } => stamp_g(&mut c, *p, *n, *cap),
                Element::Vsource { p, n, ac, .. } => {
                    let row = nnodes - 1 + vk;
                    if let Some(ip) = idx(*p) {
                        g[(ip, row)] += 1.0;
                        g[(row, ip)] += 1.0;
                    }
                    if let Some(in_) = idx(*n) {
                        g[(in_, row)] -= 1.0;
                        g[(row, in_)] -= 1.0;
                    }
                    rhs[row] += Complex::from_re(*ac);
                    vk += 1;
                }
                Element::Isource { p, n, ac, .. } => {
                    if let Some(ip) = idx(*p) {
                        rhs[ip] -= Complex::from_re(*ac);
                    }
                    if let Some(in_) = idx(*n) {
                        rhs[in_] += Complex::from_re(*ac);
                    }
                }
                Element::Vccs {
                    op: o,
                    on,
                    cp,
                    cn,
                    gm,
                } => {
                    stamp_vccs(&mut g, *o, *on, *cp, *cn, *gm);
                }
                Element::Mos(m) => {
                    // lint:allow(panic) — `op` carries one MosOp per MOS
                    // element of the circuit it was solved on; a foreign
                    // operating point is a caller bug, and this constructor
                    // has no error channel to report it.
                    let mi = mos_iter.next().expect("op and circuit out of sync");
                    stamp_g(&mut g, mi.a_d, mi.a_s, mi.gds);
                    stamp_vccs(&mut g, mi.a_d, mi.a_s, mi.g, mi.a_s, mi.gm);
                    stamp_g(&mut c, m.g, mi.a_s, mi.cgs);
                    stamp_g(&mut c, m.g, mi.a_d, mi.cgd);
                    stamp_g(&mut c, mi.a_d, crate::netlist::GND, mi.cdb);
                    stamp_g(&mut c, mi.a_s, crate::netlist::GND, mi.csb);
                }
            }
        }
        AcSolver {
            ckt,
            g,
            c,
            rhs,
            dim,
        }
    }

    /// Dimension of the MNA system.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The circuit this solver was linearized from — the noise analyses
    /// need it again for noise-source enumeration and node indexing.
    pub fn circuit(&self) -> &'a Circuit {
        self.ckt
    }

    /// Assembles the dense complex system matrix `G + j*2*pi*f*C` at
    /// frequency `f` (Hz) — what [`AcSolver::factor_at`] eliminates.
    /// Exposed so kernel benchmarks and tests can drive the LU over the
    /// identical system.
    pub fn system_matrix(&self, f: f64) -> Matrix<Complex> {
        let w = 2.0 * std::f64::consts::PI * f;
        let mut y = Matrix::<Complex>::zeros(self.dim, self.dim);
        for r in 0..self.dim {
            for cidx in 0..self.dim {
                let gg = self.g[(r, cidx)];
                let cc = self.c[(r, cidx)];
                // lint:allow(float-eq) — exact-zero sparsity guard: only
                // bitwise-zero stamps are skipped; rounded values stay.
                if gg != 0.0 || cc != 0.0 {
                    y[(r, cidx)] = Complex::new(gg, w * cc);
                }
            }
        }
        y
    }

    /// Factors the complex system `G + j*2*pi*f*C` at frequency `f` (Hz).
    ///
    /// # Errors
    ///
    /// [`SimError::SingularMatrix`] for a singular small-signal system.
    pub fn factor_at(&self, f: f64) -> Result<LuFactors<Complex>, SimError> {
        LuFactors::factor(self.system_matrix(f), 1e-300)
    }

    /// Right-hand side driven by the netlist's AC source magnitudes.
    pub fn source_rhs(&self) -> &[Complex] {
        &self.rhs
    }

    /// Solves for node voltages at frequency `f` with the netlist's own AC
    /// sources driving. Returns the full MNA solution vector.
    ///
    /// # Errors
    ///
    /// Propagates singular-matrix failures from the factorization.
    pub fn solve_sources(&self, f: f64) -> Result<Vec<Complex>, SimError> {
        Ok(self.factor_at(f)?.solve(&self.rhs))
    }

    /// The real `G` and `C` of the small-signal system `G + jωC`: what
    /// [`AcSolver::prepare_workspace`] reduces to a [`Pencil`].
    pub fn stamps(&self) -> (&Matrix<f64>, &Matrix<f64>) {
        (&self.g, &self.c)
    }

    /// Prepares `ws` for this linearization; call once before any sweep
    /// point. Reduces the pencil and projects the source vector (O(n³),
    /// once per operating point).
    pub fn prepare_workspace(&self, ws: &mut AcWorkspace) {
        ws.red.pencil.reduce(&self.g, &self.c);
        ws.red.pencil.project(&self.rhs, &mut ws.red.qb);
    }

    /// Loads the output row `Zᵀ e_out` of a prepared workspace (zeros for
    /// a ground output, whose voltage is identically zero).
    pub(crate) fn prepare_output(&self, out: Node, red: &mut Reduced) {
        red.zo.clear();
        match self.mna_index(out) {
            Some(i) => red.zo.extend_from_slice(red.pencil.z_row(i)),
            None => red.zo.resize(self.dim, 0.0),
        }
    }

    /// Collects the `(row, col, g, c)` stamp pattern (every entry where
    /// `G` or `C` is nonzero) into a caller-provided buffer (cleared
    /// first) — the per-corner input of the Woodbury corner sweeps.
    pub fn collect_pattern(&self, pattern: &mut Vec<(usize, usize, f64, f64)>) {
        pattern.clear();
        for r in 0..self.dim {
            for c in 0..self.dim {
                let gg = self.g[(r, c)];
                let cc = self.c[(r, c)];
                // lint:allow(float-eq) — exact-zero sparsity guard: the
                // pattern must keep every bitwise-nonzero stamp.
                if gg != 0.0 || cc != 0.0 {
                    pattern.push((r, c, gg, cc));
                }
            }
        }
    }

    /// Batched multi-frequency solve: the source-driven transfer to `out`
    /// at the frequencies of `freqs`, in order. The pencil is reduced once
    /// and every [`LANES`] consecutive points are one lockstep transposed
    /// Hessenberg solve ([`Pencil::solve_transposed_lanes`]), read in grid
    /// order; the batch allocates only the output vector.
    ///
    /// With `stop` set the sweep is measure-driven: it returns the prefix
    /// through the point that completes the first downward crossing of
    /// the level (see [`StopLevel`]). A point past it is never read, so it
    /// cannot fail the sweep; at most `LANES - 1` of them share the last
    /// pass. `None` solves every point.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidOptions`] for an empty, non-positive,
    /// non-finite or non-increasing grid; otherwise propagates
    /// singular-matrix failures at any solved frequency point.
    pub fn solve_sources_batch_ws(
        &self,
        freqs: &[f64],
        out: Node,
        stop: Option<StopLevel>,
        ws: &mut AcWorkspace,
    ) -> Result<Vec<Complex>, SimError> {
        validate_freqs(freqs)?;
        self.prepare_workspace(ws);
        self.prepare_output(out, &mut ws.red);
        let AcWorkspace { red, hess } = ws;
        let mut watch = StopWatch::new(stop);
        let mut h = Vec::with_capacity(freqs.len());
        for chunk in freqs.chunks(LANES) {
            red.pencil
                .solve_transposed_lanes(&lane_omegas(chunk), &red.zo, hess);
            for (lane, v) in hess.dot(&red.qb).into_iter().take(chunk.len()).enumerate() {
                hess.status(lane)?;
                h.push(v);
                if watch.done_after(v) {
                    return Ok(h);
                }
            }
        }
        Ok(h)
    }

    /// Extracts the voltage of `node` from an MNA solution vector.
    pub fn voltage(&self, x: &[Complex], node: Node) -> Complex {
        match self.ckt.mna_index(node) {
            None => Complex::ZERO,
            Some(i) => x[i],
        }
    }

    /// MNA index of `node` in this solver's system (`None` for ground).
    pub fn mna_index(&self, node: Node) -> Option<usize> {
        self.ckt.mna_index(node)
    }

    /// Small-signal step response at `out`: integrates
    /// `C x' + G x = b u(t)` (with `b` the AC-source right-hand side and
    /// zero initial state) by the trapezoidal rule over `steps` steps of
    /// `h = t_stop / steps`.
    ///
    /// The circuit is linear and time-invariant, so the companion
    /// `A = G + 2C/h` is constant over the record and each step
    /// `A x1 = 2b + (2C/h - G) x0` is the fixed affine map
    /// `x1 = M x0 + k` with `M = A⁻¹(2C/h - G)` and `k = A⁻¹ 2b`. `A` is
    /// factored once and `M` and `k` cost `n + 1` back-substitutions.
    ///
    /// Only the output entry of `x` is ever read, so the record is
    /// evaluated in blocks of `B` = [`SETTLE_BLOCK`] steps:
    /// - **warm-up:** the first `B` steps run the recurrence from
    ///   `x₀ = 0` one `n²` product at a time, giving the zero-state
    ///   outputs `y⁰₁…y⁰_B` and state `x⁰_B` (a record of at most `B`
    ///   steps ends here);
    /// - **set-up:** the output rows `pᵢ = (Mⁱ)ᵀ e_out` for `i = 1..=B`
    ///   (`pᵢ = Mᵀ pᵢ₋₁`) and `M^B` by `log₂ B` squarings;
    /// - **per block:** from the anchor `x_{jB}`, every output
    ///   `y_{jB+i} = pᵢ·x_{jB} + y⁰ᵢ` is one independent length-`n` dot,
    ///   and the next anchor is `x_{(j+1)B} = M^B x_{jB} + x⁰_B`.
    ///
    /// A block costs `n² + B·n` for `B` steps instead of `B·n²`, on top
    /// of a set-up of `B·n² + log₂B·n³`. `M` commits its solve roundoff
    /// once and the later blocks regroup the sums, so the record matches
    /// per-step solves to roundoff, not bitwise; the first `B` samples
    /// are the per-step recurrence itself.
    ///
    /// Returns `(t, y)` with `y` the small-signal deviation of `out`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidOptions`] for a degenerate time grid (zero
    /// steps, or a non-finite or non-positive `t_stop`), checked like
    /// [`crate::tran::TranOptions::validate`];
    /// [`SimError::SingularMatrix`] if `2C/h + G` is singular.
    pub fn step_response(
        &self,
        out: Node,
        t_stop: f64,
        steps: usize,
    ) -> Result<(Vec<f64>, Vec<f64>), SimError> {
        crate::tran::TranOptions::new(t_stop, steps).validate()?;
        let h = t_stop / steps as f64;
        let n = self.dim;
        let oi = self.ckt.mna_index(out);
        let t_out: Vec<f64> = (0..=steps).map(|s| s as f64 * h).collect();
        let mut a = Matrix::<f64>::zeros(n, n);
        for r in 0..n {
            for c in 0..n {
                a[(r, c)] = self.g[(r, c)] + 2.0 * self.c[(r, c)] / h;
            }
        }
        let lu = LuFactors::factor(a, 1e-300)?;
        // M column by column — `A⁻¹ (2C/h - G) e_j` — stored column-major
        // so each product accumulates contiguous columns.
        let mut mcols = vec![0.0; n * n];
        let mut col = vec![0.0; n];
        let mut xcol = Vec::new();
        for j in 0..n {
            for (i, ci) in col.iter_mut().enumerate() {
                *ci = 2.0 * self.c[(i, j)] / h - self.g[(i, j)];
            }
            lu.solve_into(&col, &mut xcol);
            mcols[j * n..(j + 1) * n].copy_from_slice(&xcol);
        }
        let b2: Vec<f64> = self.rhs.iter().map(|bv| 2.0 * bv.re).collect();
        let mut k = Vec::new();
        lu.solve_into(&b2, &mut k);

        // Warm-up: the per-step recurrence for the first block.
        let mut y_out = Vec::with_capacity(steps + 1);
        y_out.push(0.0);
        let mut x = vec![0.0; n];
        let mut xn = vec![0.0; n];
        for _ in 0..steps.min(SETTLE_BLOCK) {
            xn.copy_from_slice(&k);
            mat_vec_add(&mcols, &x, &mut xn);
            std::mem::swap(&mut x, &mut xn);
            y_out.push(oi.map_or(0.0, |i| x[i]));
        }
        if steps <= SETTLE_BLOCK {
            return Ok((t_out, y_out));
        }
        let Some(o) = oi else {
            // A ground output is identically zero.
            y_out.resize(steps + 1, 0.0);
            return Ok((t_out, y_out));
        };

        // Set-up: `prows[j*B + i-1]` is entry `j` of `pᵢ = Mᵀ pᵢ₋₁`, with
        // `p₀ = e_out`; `(Mᵀ p)_j` is column `j` of `M` dotted with `p`.
        let mut p = vec![0.0; n];
        p[o] = 1.0;
        let mut pn = vec![0.0; n];
        let mut prows = vec![0.0; n * SETTLE_BLOCK];
        for i in 0..SETTLE_BLOCK {
            for (pj, mcol) in pn.iter_mut().zip(mcols.chunks_exact(n)) {
                *pj = mcol.iter().zip(&p).map(|(m, v)| m * v).sum();
            }
            std::mem::swap(&mut p, &mut pn);
            for (j, &pj) in p.iter().enumerate() {
                prows[j * SETTLE_BLOCK + i] = pj;
            }
        }
        // `M^B` by repeated squaring: column `j` of `M²` is `M` times
        // column `j` of `M`.
        let mut mb = mcols;
        let mut sq = vec![0.0; n * n];
        for _ in 0..SETTLE_BLOCK.trailing_zeros() {
            sq.fill(0.0);
            for (sc, mc) in sq.chunks_exact_mut(n).zip(mb.chunks_exact(n)) {
                mat_vec_add(&mb, mc, sc);
            }
            std::mem::swap(&mut mb, &mut sq);
        }

        // Blocks: the anchor `x` starts at `x_B = x⁰_B`.
        let y0 = y_out[1..].to_vec();
        let xb = x.clone();
        let mut acc = [0.0; SETTLE_BLOCK];
        loop {
            acc.fill(0.0);
            for (&xj, pcol) in x.iter().zip(prows.chunks_exact(SETTLE_BLOCK)) {
                for (ai, &pij) in acc.iter_mut().zip(pcol) {
                    *ai += pij * xj;
                }
            }
            let len = (steps + 1 - y_out.len()).min(SETTLE_BLOCK);
            y_out.extend(acc[..len].iter().zip(&y0).map(|(a, y)| a + y));
            if y_out.len() > steps {
                return Ok((t_out, y_out));
            }
            xn.copy_from_slice(&xb);
            mat_vec_add(&mb, &x, &mut xn);
            std::mem::swap(&mut x, &mut xn);
        }
    }
}

/// Steps per block of [`AcSolver::step_response`]. A block pays one
/// `n²` anchor advance plus `B` length-`n` output dots, and the set-up
/// pays `B` row products and `log₂ B` squarings, so a larger `B` trades
/// per-step work for `n³` set-up. Must be a power of two.
///
/// Chosen by measurement on the TIA's six-corner, 2048-step settle
/// records at dims 4 and 60 (criterion `settle_corners_serial_tia_mesh0`
/// and `_mesh8`, 2-vCPU x86-64 host, two runs each): 65–70 µs and
/// 3.4 ms at `B = 8`; 49–58 µs and 2.9–3.1 ms at 16; 44–50 µs and
/// 2.7–4.0 ms at 32; 46–60 µs and 3.7–5.1 ms at 64; against 59–75 µs
/// and 4.2–4.7 ms for the per-step loop. The two deploy workloads of the
/// ledger read flat from 16 to 64. 32 sits inside that flat range: a
/// smaller block pays more anchor advances at dim 60, a larger one more
/// squarings.
pub const SETTLE_BLOCK: usize = 32;

const _: () = assert!(SETTLE_BLOCK.is_power_of_two());

/// `acc += M x` for a column-major `n × n` matrix `m`, as an axpy over
/// `M`'s columns: the inner loop carries no dependency between
/// iterations.
fn mat_vec_add(m: &[f64], x: &[f64], acc: &mut [f64]) {
    let n = acc.len();
    for (j, &xj) in x.iter().enumerate() {
        for (ai, &mij) in acc.iter_mut().zip(&m[j * n..(j + 1) * n]) {
            *ai += mij * xj;
        }
    }
}

/// A frequency response: paired frequency grid and complex values.
#[derive(Debug, Clone, PartialEq)]
pub struct AcResponse {
    /// Frequency grid (Hz), strictly increasing.
    pub freqs: Vec<f64>,
    /// Complex response at each grid point.
    pub h: Vec<Complex>,
}

/// The magnitude level whose first downward crossing a topology's AC
/// specs read, and so where its measure-driven sweep may stop: after the
/// first point `j` with `|H(f_{j-1})| >= level > |H(f_j)|`, the test
/// [`AcResponse::ugbw`] and [`AcResponse::f_3db`] search with. A response
/// whose first point is already below the level stops after its second
/// point: `ugbw` fails on it before any search, and a
/// [`StopLevel::RelativeToFirst`] level of at most 1 never starts below.
/// A response that never crosses (or has a NaN magnitude) is solved over
/// the whole grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopLevel {
    /// `|H| = level`: unity for `ugbw` and the phase margin.
    Absolute(f64),
    /// `|H| = ratio·|H(f₀)|`: `1/√2` for `f_3db`.
    RelativeToFirst(f64),
}

impl StopLevel {
    /// The level against a response whose first point has magnitude
    /// `m0`, computed as the spec computes it.
    fn resolve(self, m0: f64) -> f64 {
        match self {
            StopLevel::Absolute(level) => level,
            StopLevel::RelativeToFirst(ratio) => m0 * ratio,
        }
    }
}

/// The running stop test of one measure-driven sweep, fed one point at
/// a time. `None` never stops.
#[derive(Debug, Clone, Copy)]
struct StopWatch {
    stop: Option<StopLevel>,
    level: f64,
    prev: f64,
    points: usize,
}

impl StopWatch {
    fn new(stop: Option<StopLevel>) -> Self {
        StopWatch {
            stop,
            level: f64::NAN,
            prev: f64::NAN,
            points: 0,
        }
    }

    /// Records the next point's value; true once the sweep may stop
    /// after it (see [`StopLevel`]).
    fn done_after(&mut self, v: Complex) -> bool {
        let Some(stop) = self.stop else {
            return false;
        };
        let m = v.norm();
        self.points += 1;
        let done = match self.points {
            1 => {
                self.level = stop.resolve(m);
                false
            }
            2 if self.prev < self.level => true,
            _ => self.prev >= self.level && m < self.level,
        };
        self.prev = m;
        done
    }
}

/// Runs an AC sweep and records the transfer to `out` (driven by the
/// netlist's AC sources): [`ac_sweep_ws`] on a fresh workspace.
///
/// # Errors
///
/// [`SimError::InvalidOptions`] for an empty, non-positive, non-finite or
/// non-increasing frequency grid; otherwise propagates solver failures at
/// any frequency point.
///
/// # Examples
///
/// An RC low-pass has its -3 dB point at `1/(2 pi R C)`:
///
/// ```
/// use autockt_sim::netlist::{Circuit, GND};
/// use autockt_sim::dc::{dc_operating_point, DcOptions};
/// use autockt_sim::ac::{ac_sweep, log_freqs};
///
/// # fn main() -> Result<(), autockt_sim::SimError> {
/// let mut ckt = Circuit::new();
/// let i = ckt.node("in");
/// let o = ckt.node("out");
/// ckt.vsource(i, GND, 0.0, 1.0);
/// ckt.resistor(i, o, 1.0e3);
/// ckt.capacitor(o, GND, 1e-9);
/// let op = dc_operating_point(&ckt, &DcOptions::default())?;
/// let resp = ac_sweep(&ckt, &op, &log_freqs(1e3, 1e8, 20), o)?;
/// let f3db = resp.f_3db()?;
/// let expect = 1.0 / (2.0 * std::f64::consts::PI * 1.0e3 * 1e-9);
/// assert!((f3db - expect).abs() / expect < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn ac_sweep(
    ckt: &Circuit,
    op: &OpPoint,
    freqs: &[f64],
    out: Node,
) -> Result<AcResponse, SimError> {
    ac_sweep_ws(ckt, op, freqs, out, &mut AcWorkspace::new())
}

/// [`ac_sweep`] with reusable workspace buffers: one reduction of the
/// pencil, then an allocation-free O(n²) solve per frequency point. This
/// is the one workspace entry point of the AC sweep; the warm evaluation
/// sessions route their sweeps through it.
///
/// # Errors
///
/// Same contract as [`ac_sweep`].
pub fn ac_sweep_ws(
    ckt: &Circuit,
    op: &OpPoint,
    freqs: &[f64],
    out: Node,
    ws: &mut AcWorkspace,
) -> Result<AcResponse, SimError> {
    let h = AcSolver::new(ckt, op).solve_sources_batch_ws(freqs, out, None, ws)?;
    Ok(AcResponse {
        freqs: freqs.to_vec(),
        h,
    })
}

/// The angular frequencies `2πf` of one pass of at most [`LANES`] grid
/// points; a short last chunk repeats its last point in the spare lanes,
/// which nothing reads.
pub(crate) fn lane_omegas(chunk: &[f64]) -> [f64; LANES] {
    std::array::from_fn(|i| 2.0 * std::f64::consts::PI * chunk[i.min(chunk.len() - 1)])
}

/// `Σ v_i x_i`, the bilinear (unconjugated) product that reads a
/// response off an adjoint vector.
pub(crate) fn dot(v: &[Complex], x: &[Complex]) -> Complex {
    v.iter().zip(x).fold(Complex::ZERO, |s, (&a, &b)| s + a * b)
}

/// Validates a sweep frequency grid the way `TranOptions::validate`
/// guards time grids: an empty, non-positive, non-finite or
/// non-increasing grid would silently produce an empty response, a
/// singular point, or a response that `f_3db`/`ugbw` interpolation and
/// the noise integrals misread, so it is rejected up front. So is a
/// point above about 2.86e307 Hz, whose angular frequency `2πf` (the
/// value [`lane_omegas`] feeds the kernels) overflows to infinity.
pub(crate) fn validate_freqs(freqs: &[f64]) -> Result<(), SimError> {
    if freqs.is_empty() {
        return Err(SimError::InvalidOptions {
            what: "frequency grid is empty",
        });
    }
    if freqs.iter().any(|f| !f.is_finite() || *f <= 0.0) {
        return Err(SimError::InvalidOptions {
            what: "frequencies must be finite and positive",
        });
    }
    if freqs
        .iter()
        .any(|f| !(2.0 * std::f64::consts::PI * f).is_finite())
    {
        return Err(SimError::InvalidOptions {
            what: "angular frequency 2πf overflows",
        });
    }
    if freqs.windows(2).any(|w| w[1] <= w[0]) {
        return Err(SimError::InvalidOptions {
            what: "frequency grid must be strictly increasing",
        });
    }
    Ok(())
}

/// Dimension boundary between "stock" and "dense" extraction regimes for
/// the corner paths. At or below it the Woodbury correction cannot pay
/// (the difference support spans most of the system), so the corner
/// sweeps and noise analyses run the reduced scalar path per corner —
/// bitwise-equal to the cold per-corner path; above it the correction
/// wins.
pub(crate) const STOCK_DIM_MAX: usize = 16;

/// Corner-correction AC sweep: the fast path of the *warm* corner
/// engine. The B corner systems of a worst-case evaluation differ only in
/// their device stamps — the parasitic mesh, passives, sources, and gmin
/// regularization are identical across PVT corners — so instead of B full
/// factorizations per frequency this runs the shared adjoint row
/// (`CornerSet`): one base factorization per point, and every corner's
/// transfer read off its adjoint `z_b = A_b⁻ᵀ e_out` as
///
/// `H_b = z_b·b = z·b − Σ_c q_b[c]·(V_c·b)`,
///
/// with the dots `z·b` and `V_c·b` taken once per point, so a corner costs
/// its `|R| x |R|` correction and `|C|` products, and `z_b` is never
/// formed.
///
/// The correction is algebraically exact; in floating point it agrees
/// with the direct per-corner factorization to roundoff amplified by the
/// base system's conditioning — far inside the warm evaluation path's
/// solver-tolerance contract, which is why *cold* evaluations sweep each
/// corner through [`AcSolver::solve_sources_batch_ws`] instead. Falls
/// back to that reduced per-corner sweep wherever `CornerSet` does not
/// apply, and to a direct per-corner factor at any frequency where the
/// base factor or a correction system is singular. A degenerate frequency
/// grid reports [`SimError::InvalidOptions`] for every corner.
///
/// With `stop` set every corner's response is the prefix through its own
/// crossing (see [`AcSolver::solve_sources_batch_ws`]). The per-corner
/// sweeps stop corner by corner; the Woodbury rows share one base factor
/// per point, so they run until every corner has crossed or failed and
/// skip the corners already done.
pub fn ac_sweep_corners(
    solvers: &[AcSolver<'_>],
    freqs: &[f64],
    outs: &[Node],
    stop: Option<StopLevel>,
    ws: &mut AcBatchWorkspace,
) -> Vec<Result<AcResponse, SimError>> {
    assert_eq!(solvers.len(), outs.len(), "one output node per corner");
    if let Err(e) = validate_freqs(freqs) {
        return solvers.iter().map(|_| Err(e.clone())).collect();
    }
    let response = |h: Vec<Complex>| AcResponse {
        freqs: freqs[..h.len()].to_vec(),
        h,
    };
    let Some(set) = CornerSet::new(solvers, outs, ws) else {
        // Each corner through the scalar kernel, stopping on its own:
        // bitwise the cold per-corner sweep.
        let scalar = &mut ws.scalar;
        return solvers
            .iter()
            .zip(outs)
            .map(|(s, &o)| {
                s.solve_sources_batch_ws(freqs, o, stop, scalar)
                    .map(response)
            })
            .collect();
    };
    let mut read = AcRead {
        rhs: solvers[0].source_rhs(),
        zb: Complex::ZERO,
        vb: Vec::new(),
        watches: vec![StopWatch::new(stop); solvers.len()],
    };
    set.sweep(freqs, ws, &mut read)
        .into_iter()
        .map(|h| h.map(response))
        .collect()
}

/// [`ac_sweep_corners`]' reading of the adjoint row.
struct AcRead<'a> {
    rhs: &'a [Complex],
    /// `z·b` at the current point.
    zb: Complex,
    /// `V_c·b` at the current point, one per column of the support.
    vb: Vec<Complex>,
    watches: Vec<StopWatch>,
}

impl AdjointRead for AcRead<'_> {
    type Point = Complex;

    fn base(&mut self, z: &[Complex], v: &[Complex]) {
        self.zb = dot(z, self.rhs);
        self.vb.clear();
        self.vb
            .extend(v.chunks_exact(z.len()).map(|vc| dot(vc, self.rhs)));
    }

    fn corner(&mut self, _: usize, _: f64, adj: CornerAdjoint<'_>) -> Complex {
        match adj {
            CornerAdjoint::Formed(z) => dot(z, self.rhs),
            CornerAdjoint::Corrected { q, .. } => q
                .iter()
                .zip(&self.vb)
                .fold(self.zb, |h, (&qc, &vc)| h - qc * vc),
        }
    }

    fn done_after(&mut self, b: usize, h: &Complex) -> bool {
        self.watches[b].done_after(*h)
    }
}

/// Corner `b`'s adjoint `z_b = A_b⁻ᵀ e_out` at one point of
/// [`CornerSet::sweep`].
pub(crate) enum CornerAdjoint<'a> {
    /// Formed: the base corner's `z`, or a corner's own direct solve.
    Formed(&'a [Complex]),
    /// Left as `z_b = z − Σ_c q[c]·V_c`: the base adjoint `z`, the column
    /// adjoints `V` (`n` entries each, in [`CornerDiff::cols`] order) and
    /// the corner's weights `q`.
    Corrected {
        z: &'a [Complex],
        v: &'a [Complex],
        q: &'a [Complex],
    },
}

/// How a corner path reads the shared adjoint row of
/// [`CornerSet::sweep`].
pub(crate) trait AdjointRead {
    /// One corner's value at one point.
    type Point;

    /// Once per point where the base factor holds, before any corner's
    /// [`AdjointRead::corner`]: the base adjoint `z` and the column
    /// adjoints `V`.
    fn base(&mut self, _z: &[Complex], _v: &[Complex]) {}

    /// Corner `b`'s value at frequency `fq`.
    fn corner(&mut self, b: usize, fq: f64, adj: CornerAdjoint<'_>) -> Self::Point;

    /// Whether corner `b`'s sweep ends after the point `p`; never by
    /// default.
    fn done_after(&mut self, _b: usize, _p: &Self::Point) -> bool {
        false
    }
}

/// The warm corner paths' shared Woodbury set-up ([`ac_sweep_corners`]
/// and [`crate::noise::noise_analysis_corners`]): the corners' common
/// output row, their stamp patterns and their stamp differences against
/// the base corner ([`CornerDiff`]).
///
/// Per frequency point [`CornerSet::sweep`] runs one adjoint row
/// ([`crate::linalg::correction`]): it factors the base corner once,
/// solves `z = A0⁻ᵀ e_out` and `V_c = A0⁻ᵀ e_c` for each column `c` of
/// [`CornerDiff::cols`], fills `W[c][j] = V_c[R_j]`, and for each live
/// corner factors `S_b = I + N_b W` and forms the weights
/// `q_b = N_bᵀ S_b⁻ᵀ z|_R`. That is 1 factorization, `1 + |C|`
/// transposed solves and `B` small factors per point, instead of `B`
/// factorizations; the caller's [`AdjointRead`] turns each corner's
/// adjoint into its value.
pub(crate) struct CornerSet {
    /// The output's MNA index, shared by every corner.
    out: usize,
    cd: CornerDiff,
    /// Each corner's `(row, col, g, c)` stamp pattern, on loan from the
    /// workspace for the sweep.
    patterns: Vec<Vec<(usize, usize, f64, f64)>>,
}

impl CornerSet {
    /// The set-up, or `None` where the caller runs its per-corner scalar
    /// path instead: a single corner; a stock dim (`n <= STOCK_DIM_MAX`);
    /// corners that differ in dim, output or source vector (corner sets
    /// never do, so this is a safety valve); a ground output; or a
    /// difference support too wide to pay ([`CornerDiff::profitable`]).
    pub(crate) fn new(
        solvers: &[AcSolver<'_>],
        outs: &[Node],
        ws: &mut AcBatchWorkspace,
    ) -> Option<CornerSet> {
        let s0 = solvers.first()?;
        let n = s0.dim();
        let out = s0.mna_index(outs[0])?;
        if solvers.len() == 1
            || n <= STOCK_DIM_MAX
            || solvers.iter().zip(outs).any(|(s, &o)| {
                s.dim() != n || s.mna_index(o) != Some(out) || s.source_rhs() != s0.source_rhs()
            })
        {
            return None;
        }
        ws.patterns.resize(solvers.len(), Vec::new());
        for (pat, s) in ws.patterns.iter_mut().zip(solvers) {
            s.collect_pattern(pat);
        }
        let cd = CornerDiff::from_patterns(&ws.patterns, n);
        cd.profitable(n).then(|| CornerSet {
            out,
            cd,
            patterns: std::mem::take(&mut ws.patterns),
        })
    }

    /// Sweeps `freqs` in order, frequency-major: every live corner's point
    /// at one frequency shares that point's base factor and adjoint
    /// solves. A corner's sweep ends at its first error, which replaces
    /// its points, or once `read` stops it; the rows run until every
    /// corner has ended.
    pub(crate) fn sweep<R: AdjointRead>(
        self,
        freqs: &[f64],
        ws: &mut AcBatchWorkspace,
        read: &mut R,
    ) -> Vec<Result<Vec<R::Point>, SimError>> {
        let bt = self.patterns.len();
        let mut e_out = vec![Complex::ZERO; self.cd.row_pos.len()];
        e_out[self.out] = Complex::ONE;
        let mut sweeps: Vec<Result<Vec<R::Point>, SimError>> = (0..bt)
            .map(|_| Ok(Vec::with_capacity(freqs.len())))
            .collect();
        let mut live = vec![true; bt];
        let mut row: Vec<Option<Result<R::Point, SimError>>> = (0..bt).map(|_| None).collect();
        for &fq in freqs {
            self.row(fq, &e_out, &live, ws, read, &mut row);
            for (b, slot) in row.iter_mut().enumerate() {
                match slot.take() {
                    Some(Ok(p)) => {
                        live[b] = !read.done_after(b, &p);
                        if let Ok(pts) = &mut sweeps[b] {
                            pts.push(p);
                        }
                    }
                    Some(Err(e)) => {
                        sweeps[b] = Err(e);
                        live[b] = false;
                    }
                    None => {}
                }
            }
            if !live.contains(&true) {
                break;
            }
        }
        ws.patterns = self.patterns;
        sweeps
    }

    /// One frequency point of [`CornerSet::sweep`], writing every live
    /// corner's value (or error) into its slot of `row`.
    // Out of line on purpose: inlined, this kernel moved the code layout of
    // the stock-dim paths enough to slow the dim-4 TIA deployment by 4–6%
    // (ledger `deploy_tia_pexwc`), although none of its code runs there.
    #[inline(never)]
    fn row<R: AdjointRead>(
        &self,
        fq: f64,
        e_out: &[Complex],
        live: &[bool],
        ws: &mut AcBatchWorkspace,
        read: &mut R,
        row: &mut [Option<Result<R::Point, SimError>>],
    ) {
        let (cd, n) = (&self.cd, e_out.len());
        let w_ang = 2.0 * std::f64::consts::PI * fq;
        let combine = |dg: f64, dc: f64| Complex::new(dg, w_ang * dc);
        let AcBatchWorkspace {
            base,
            spare,
            small,
            z,
            unit,
            xcol,
            wflat,
            adj,
            zr,
            sr,
            q,
            ..
        } = ws;
        // A corner's own factor and transposed solve: the fallback where
        // the base factor or the corner's correction is singular.
        let mut direct = |b: usize, read: &mut R| -> Result<R::Point, SimError> {
            factor_pattern(spare, n, &self.patterns[b], w_ang)?;
            spare.solve_transposed_into(e_out, xcol);
            Ok(read.corner(b, fq, CornerAdjoint::Formed(xcol.as_slice())))
        };
        let slots = row.iter_mut().enumerate().filter(|(b, _)| live[*b]);
        if factor_pattern(base, n, &self.patterns[0], w_ang).is_err() {
            for (b, slot) in slots {
                *slot = Some(direct(b, read));
            }
            return;
        }
        base.solve_transposed_into(e_out, z);
        adj.clear();
        for &c in &cd.cols {
            unit.clear();
            unit.resize(n, Complex::ZERO);
            unit[c] = Complex::ONE;
            base.solve_transposed_into(unit, sr);
            adj.extend_from_slice(sr);
        }
        // W[c][j] = V_c[R_j]; only the columns in C are ever read.
        let rn = cd.support();
        wflat.clear();
        wflat.resize(rn * n, Complex::ZERO);
        for (v, &c) in adj.chunks_exact(n).zip(&cd.cols) {
            for (j, &r) in cd.rows.iter().enumerate() {
                wflat[j * n + c] = v[r];
            }
        }
        read.base(z, adj);
        for (b, slot) in slots {
            let diff = &cd.diffs[b];
            *slot = Some(if diff.is_empty() {
                // Corner identical to the base: its adjoint *is* `z`.
                Ok(read.corner(b, fq, CornerAdjoint::Formed(z)))
            } else if factor_correction(small, diff, &cd.row_pos, rn, n, combine, wflat).is_ok() {
                zr.clear();
                zr.extend(cd.rows.iter().map(|&r| z[r]));
                small.solve_transposed_into(zr, sr);
                q.clear();
                q.resize(cd.cols.len(), Complex::ZERO);
                for &(r, c, dg, dc) in diff {
                    q[cd.col_pos[c]] += combine(dg, dc) * sr[cd.row_pos[r]];
                }
                Ok(read.corner(b, fq, CornerAdjoint::Corrected { z, v: adj, q }))
            } else {
                direct(b, read)
            });
        }
    }
}

/// Factors `G + j*w*C`, stamped from a `(row, col, g, c)` pattern into a
/// zeroed `n x n` matrix, into `lu` — the per-frequency-point
/// factorization of the Woodbury corner paths.
fn factor_pattern(
    lu: &mut LuFactors<Complex>,
    n: usize,
    pattern: &[(usize, usize, f64, f64)],
    w: f64,
) -> Result<(), SimError> {
    lu.refactor_with(n, 1e-300, |m| {
        for &(r, c, g, cc) in pattern {
            m[(r, c)] = Complex::new(g, w * cc);
        }
    })
}

/// Builds a logarithmically spaced frequency grid from `fstart` to `fstop`,
/// endpoints included.
///
/// The grid has `ceil(decades * points_per_decade) + 2` points, where
/// `decades = log10(fstop / fstart)`: the span is cut into one more
/// interval than `points_per_decade` per decade asks for, so the grid is
/// slightly denser than its name says (1 Hz to 10 Hz at 10 per decade
/// gives 12 points).
///
/// # Panics
///
/// Panics unless `0 < fstart < fstop`, `fstop / fstart` is finite (so
/// both bounds are), and `points_per_decade >= 1`.
pub fn log_freqs(fstart: f64, fstop: f64, points_per_decade: usize) -> Vec<f64> {
    let ratio = fstop / fstart;
    assert!(
        fstart > 0.0 && fstop > fstart && ratio.is_finite() && points_per_decade >= 1,
        "log_freqs needs finite 0 < fstart < fstop and points_per_decade >= 1"
    );
    let decades = ratio.log10();
    let n = (decades * points_per_decade as f64).ceil() as usize + 1;
    (0..=n)
        .map(|i| fstart * 10f64.powf(decades * i as f64 / n as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use crate::device::{MosPolarity, Technology};
    use crate::netlist::{Mosfet, GND};

    #[test]
    fn rc_lowpass_magnitude_and_phase() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        ckt.resistor(i, o, 1.0e3);
        ckt.capacitor(o, GND, 1e-9);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let resp = ac_sweep(&ckt, &op, &[fc], o).unwrap();
        // At the corner: magnitude 1/sqrt(2), phase -45 degrees.
        assert!((resp.h[0].norm() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((resp.h[0].arg().to_degrees() + 45.0).abs() < 0.1);
    }

    #[test]
    fn log_freqs_monotone_and_bounded() {
        let f = log_freqs(1e2, 1e6, 10);
        assert!((f[0] - 1e2).abs() / 1e2 < 1e-12);
        assert!((f.last().unwrap() - 1e6).abs() / 1e6 < 1e-9);
        assert!(f.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn log_freqs_point_count_matches_its_doc() {
        // ceil(decades * points_per_decade) + 2 points.
        assert_eq!(log_freqs(1.0, 10.0, 10).len(), 12);
        assert_eq!(log_freqs(1e2, 1e6, 10).len(), 42);
        assert_eq!(log_freqs(1e3, 1e11, 10).len(), 82);
    }

    #[test]
    #[should_panic(expected = "log_freqs needs finite")]
    fn log_freqs_rejects_an_infinite_bound() {
        let _ = log_freqs(1.0, f64::INFINITY, 10);
    }

    #[test]
    fn common_source_gain_matches_gm_ro() {
        // NMOS common-source with ideal current-source-like load resistor:
        // |A| = gm * (ro || RL) at low frequency.
        let t = Technology::ptm45();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let o = ckt.node("o");
        ckt.vsource(vdd, GND, 1.0, 0.0);
        ckt.vsource(g, GND, 0.55, 1.0);
        ckt.resistor_noiseless(vdd, o, 20.0e3);
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: o,
            g,
            s: GND,
            w: 2e-6,
            l: 90e-9,
            mult: 1.0,
            model: t.nmos,
        });
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let m = &op.mosfets()[0];
        let expect = m.gm * (1.0 / (m.gds + 1.0 / 20.0e3));
        let resp = ac_sweep(&ckt, &op, &[1.0e3], o).unwrap();
        let got = resp.h[0].norm();
        assert!(
            (got - expect).abs() / expect < 1e-3,
            "gain {got} vs gm*rout {expect}"
        );
        // Inverting stage: phase near 180 degrees.
        assert!((resp.h[0].arg().to_degrees().abs() - 180.0).abs() < 1.0);
    }

    #[test]
    fn linear_step_response_matches_rc_analytic() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        ckt.resistor(i, o, 1.0e3);
        ckt.capacitor(o, GND, 1e-9);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let solver = AcSolver::new(&ckt, &op);
        let (t, y) = solver.step_response(o, 5e-6, 2000).unwrap();
        for (ti, yi) in t.iter().zip(&y).skip(10) {
            let expect = 1.0 - (-ti / 1e-6).exp();
            assert!((yi - expect).abs() < 5e-3, "at t={ti}: {yi} vs {expect}");
        }
    }

    /// An RC low-pass from a 1 V AC source: one variant of a stock-dim
    /// corner set.
    fn rc_variant(r: f64, c: f64) -> (Circuit, Node) {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        ckt.resistor(i, o, r);
        ckt.capacitor(o, GND, c);
        (ckt, o)
    }

    /// A corner variant that differs from its siblings only in one
    /// "device" conductance at the output: the worst-case-PVT shape.
    fn mesh_variant(g_dev: f64) -> (Circuit, Node) {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        ckt.vsource(i, GND, 0.0, 1.0);
        // A 20-segment RC mesh (shared by all corners) between the
        // source and the corner-dependent element, so the system is
        // dense enough for the correction to engage (dim > 16).
        let mut prev = i;
        for s in 0..20 {
            let nn = ckt.node(&format!("m{s}"));
            ckt.resistor(prev, nn, 1.0e3);
            ckt.capacitor(nn, GND, 2e-12);
            prev = nn;
        }
        let o = ckt.node("out");
        ckt.resistor(prev, o, 1.0 / g_dev); // the corner-dependent part
        ckt.capacitor(o, GND, 1e-9);
        (ckt, o)
    }

    #[test]
    fn batched_sweep_matches_scalar_bitwise() {
        // Three same-structure RC variants (the corner-set shape) at a
        // stock dim: the corner sweep runs each corner through the scalar
        // kernel and must reproduce each scalar sweep bit for bit.
        let variants = [
            rc_variant(1.0e3, 1e-9),
            rc_variant(1.3e3, 0.8e-9),
            rc_variant(0.7e3, 1.4e-9),
        ];
        let ops: Vec<OpPoint> = variants
            .iter()
            .map(|(ckt, _)| dc_operating_point(ckt, &DcOptions::default()).unwrap())
            .collect();
        let solvers: Vec<AcSolver<'_>> = variants
            .iter()
            .zip(&ops)
            .map(|((ckt, _), op)| AcSolver::new(ckt, op))
            .collect();
        let outs = vec![variants[0].1; variants.len()];
        let freqs = log_freqs(1e3, 1e8, 5);
        let mut ws = AcBatchWorkspace::new();
        let batch = ac_sweep_corners(&solvers, &freqs, &outs, None, &mut ws);
        for ((ckt, out), (op, res)) in variants.iter().zip(ops.iter().zip(&batch)) {
            let scalar = ac_sweep(ckt, op, &freqs, *out).unwrap();
            assert_eq!(res.as_ref().unwrap(), &scalar);
        }
        // Workspace reuse across a second sweep stays bitwise too.
        let again = ac_sweep_corners(&solvers, &freqs, &outs, None, &mut ws);
        assert_eq!(batch, again);
    }

    #[test]
    fn corner_correction_sweep_matches_direct_factorization() {
        // Corner variants that differ only in a "device" conductance at
        // one node — the worst-case-PVT shape: shared mesh, tiny stamp
        // difference. The Woodbury sweep must agree with the direct
        // per-corner factorization to roundoff.
        let variants = [
            mesh_variant(1e-3),
            mesh_variant(1.12e-3),
            mesh_variant(0.88e-3),
            mesh_variant(1e-3),
        ];
        let ops: Vec<OpPoint> = variants
            .iter()
            .map(|(ckt, _)| dc_operating_point(ckt, &DcOptions::default()).unwrap())
            .collect();
        let solvers: Vec<AcSolver<'_>> = variants
            .iter()
            .zip(&ops)
            .map(|((ckt, _), op)| AcSolver::new(ckt, op))
            .collect();
        let outs = vec![variants[0].1; variants.len()];
        let freqs = log_freqs(1e3, 1e8, 6);
        let mut ws = AcBatchWorkspace::new();
        let corr = ac_sweep_corners(&solvers, &freqs, &outs, None, &mut ws);
        for ((ckt, out), (op, res)) in variants.iter().zip(ops.iter().zip(&corr)) {
            let direct = ac_sweep(ckt, op, &freqs, *out).unwrap();
            let got = res.as_ref().unwrap();
            for (a, b) in got.h.iter().zip(&direct.h) {
                assert!(
                    (*a - *b).norm() <= 1e-9 * (1.0 + b.norm()),
                    "correction diverged: {a} vs {b}"
                );
            }
        }
        // Corner 3 is identical to the base: the correction must be a
        // no-op, bit for bit.
        assert_eq!(corr[3].as_ref().unwrap().h, corr[0].as_ref().unwrap().h);
    }

    /// The corner sweep's responses with and without a stop: each
    /// stopped response must be a bitwise prefix of the full one that
    /// ends on the point completing its crossing.
    fn assert_stopped_prefixes(
        solvers: &[AcSolver<'_>],
        out: Node,
        freqs: &[f64],
        stop: StopLevel,
    ) {
        let outs = vec![out; solvers.len()];
        let mut ws = AcBatchWorkspace::new();
        let full = ac_sweep_corners(solvers, freqs, &outs, None, &mut ws);
        let cut = ac_sweep_corners(solvers, freqs, &outs, Some(stop), &mut ws);
        for (s, (f, c)) in solvers.iter().zip(full.iter().zip(&cut)) {
            let (f, c) = (f.as_ref().unwrap(), c.as_ref().unwrap());
            let k = c.h.len();
            assert!(
                k >= 2 && k < f.h.len(),
                "stopped after {k} of {}",
                f.h.len()
            );
            assert_eq!(c.h[..], f.h[..k]);
            assert_eq!(c.freqs[..], freqs[..k]);
            let level = stop.resolve(c.h[0].norm());
            let (m0, prev, last) = (c.h[0].norm(), c.h[k - 2].norm(), c.h[k - 1].norm());
            assert!(
                (k == 2 && m0 < level) || (prev >= level && last < level),
                "stopped at {k} without a crossing"
            );
            // The cold sweep of the same corner stops on the same point.
            let h = s.solve_sources_batch_ws(freqs, out, Some(stop), &mut AcWorkspace::new());
            assert_eq!(h.unwrap().len(), k);
        }
    }

    #[test]
    fn stopped_corner_sweeps_are_prefixes_of_the_full_sweep() {
        let freqs = log_freqs(1e3, 1e9, 10);
        // Stock dim: the per-corner sweeps stop corner by corner.
        let rcs = [
            rc_variant(1.0e3, 1e-9),
            rc_variant(1.3e3, 0.8e-9),
            rc_variant(0.7e3, 1.4e-9),
        ];
        let ops: Vec<OpPoint> = rcs
            .iter()
            .map(|(c, _)| dc_operating_point(c, &DcOptions::default()).unwrap())
            .collect();
        let solvers: Vec<AcSolver<'_>> = rcs
            .iter()
            .zip(&ops)
            .map(|((c, _), op)| AcSolver::new(c, op))
            .collect();
        for stop in [
            StopLevel::RelativeToFirst(std::f64::consts::FRAC_1_SQRT_2),
            StopLevel::Absolute(0.5),
            StopLevel::Absolute(2.0),
        ] {
            assert_stopped_prefixes(&solvers, rcs[0].1, &freqs, stop);
        }
        // Dense dim: the Woodbury rows run until every corner has crossed.
        let meshes = [
            mesh_variant(1e-3),
            mesh_variant(1.12e-3),
            mesh_variant(0.88e-3),
        ];
        let ops: Vec<OpPoint> = meshes
            .iter()
            .map(|(c, _)| dc_operating_point(c, &DcOptions::default()).unwrap())
            .collect();
        let solvers: Vec<AcSolver<'_>> = meshes
            .iter()
            .zip(&ops)
            .map(|((c, _), op)| AcSolver::new(c, op))
            .collect();
        assert!(solvers[0].dim() > STOCK_DIM_MAX);
        for stop in [
            StopLevel::RelativeToFirst(std::f64::consts::FRAC_1_SQRT_2),
            StopLevel::Absolute(0.5),
            StopLevel::Absolute(2.0),
        ] {
            assert_stopped_prefixes(&solvers, meshes[0].1, &freqs, stop);
        }
    }

    #[test]
    fn current_source_drive_transimpedance() {
        // 1 A AC into a resistor reads R volts.
        let mut ckt = Circuit::new();
        let o = ckt.node("o");
        ckt.isource(GND, o, 0.0, 1.0);
        ckt.resistor(o, GND, 123.0);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let resp = ac_sweep(&ckt, &op, &[1e3], o).unwrap();
        assert!((resp.h[0].norm() - 123.0).abs() < 1e-6);
    }
}
