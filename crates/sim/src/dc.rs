//! DC operating-point analysis: damped Newton–Raphson over the nonlinear
//! MNA system, with a gmin-stepping homotopy fallback for hard circuits.
//!
//! The unknown vector is `[v(1), ..., v(N-1), i(V1), ..., i(Vk)]` — node
//! voltages excluding ground followed by voltage-source branch currents.
//!
//! Every Newton iteration assembles the Jacobian densely and factors it
//! with [`LuFactors`]. When the cold solve hits a singular Jacobian, the
//! structural check of [`crate::linalg::structure`] runs on that Jacobian
//! before the homotopy: a topology no gmin value can repair is reported
//! as [`SimError::StructurallySingular`] at once.
//!
//! The element stamps and the Newton loop here are the simulator's only
//! ones: every transient time point ([`crate::tran`]) is one Newton solve
//! of this assembler with the capacitor companions added, and the
//! small-signal linearization ([`crate::ac::AcSolver::new`]) builds `G`
//! and `C` from the same conductance, VCCS and branch stamps.

use crate::device::{MosPolarity, MosRegion};
use crate::error::SimError;
use crate::linalg::{structure, LuFactors, Matrix};
use crate::netlist::{Circuit, Element, Mosfet, Node};

/// Reusable buffers for repeated DC solves of same-dimension circuits:
/// the Newton Jacobian, residual, right-hand side, update vector, and LU
/// factors. One workspace serves any sequence of solves (buffers are
/// resized on dimension change), so an evaluation session allocates the
/// matrices once per environment instead of once per Newton iteration.
#[derive(Debug, Clone)]
pub(crate) struct DcWorkspace {
    j: Matrix<f64>,
    f: Vec<f64>,
    rhs: Vec<f64>,
    dx: Vec<f64>,
    lu: LuFactors<f64>,
}

impl DcWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub(crate) fn new() -> Self {
        DcWorkspace {
            j: Matrix::zeros(0, 0),
            f: Vec::new(),
            rhs: Vec::new(),
            dx: Vec::new(),
            lu: LuFactors::empty(),
        }
    }
}

impl Default for DcWorkspace {
    fn default() -> Self {
        DcWorkspace::new()
    }
}

/// Warm-start state threaded through consecutive evaluations by an
/// evaluation session: the previous MNA solution per *slot* (one slot per
/// circuit variant — e.g. one per PVT corner — since their solution
/// vectors are not interchangeable), plus the session's reusable DC and
/// AC buffers.
///
/// RL actions move each parameter at most one grid notch, so the previous
/// operating point is an excellent Newton initial guess for the next one.
/// [`WarmState::solve`] is the warm DC entry point: it falls back to the
/// cold start + gmin homotopy of [`dc_operating_point`] whenever the warm
/// guess does not converge. [`WarmState::ac_workspace`] holds the buffers
/// of the evaluation's AC and noise stages.
#[derive(Debug, Clone, Default)]
pub struct WarmState {
    slots: Vec<Option<Vec<f64>>>,
    ws: DcWorkspace,
    ac: crate::ac::AcWorkspace,
}

impl WarmState {
    /// Creates an empty warm state.
    pub fn new() -> Self {
        WarmState::default()
    }

    /// Solves the operating point of `ckt`, seeding Newton with the last
    /// solution stored in `slot` (if any) and storing the new solution
    /// back on success. On failure the slot is cleared so the next solve
    /// starts cold.
    ///
    /// # Errors
    ///
    /// Same contract as [`dc_operating_point`].
    pub fn solve(
        &mut self,
        slot: usize,
        ckt: &Circuit,
        opts: &DcOptions,
    ) -> Result<OpPoint, SimError> {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        let warm = self.slots[slot].take();
        let res = dc_operating_point_warm(ckt, opts, warm.as_deref(), &mut self.ws);
        if let Ok(op) = &res {
            self.slots[slot] = Some(op.mna_vector());
        }
        res
    }

    /// Drops all stored solutions (e.g. on episode reset) while keeping
    /// the workspace allocations.
    pub fn reset(&mut self) {
        self.slots.clear();
    }

    /// Whether any slot currently holds a previous solution.
    pub fn is_warm(&self) -> bool {
        self.slots.iter().any(Option::is_some)
    }

    /// Snapshot of the per-slot solutions, for save/restore by a memoizing
    /// evaluation session: restoring the snapshot taken right after a grid
    /// point was solved keeps warm guesses adjacent even when intervening
    /// evaluations were served from a cache.
    pub fn snapshot(&self) -> Vec<Option<Vec<f64>>> {
        self.slots.clone()
    }

    /// Restores a snapshot taken by [`WarmState::snapshot`], reusing the
    /// existing slot allocations (this runs on every memo-cache hit).
    pub fn restore(&mut self, snapshot: &[Option<Vec<f64>>]) {
        self.slots.resize(snapshot.len(), None);
        for (dst, src) in self.slots.iter_mut().zip(snapshot) {
            match src {
                Some(s) => match dst {
                    Some(v) => v.clone_from(s),
                    None => *dst = Some(s.clone()),
                },
                None => *dst = None,
            }
        }
    }

    /// The session's reusable AC-analysis buffers, for the warm stages of
    /// every evaluation (one corner or many):
    /// [`crate::ac::ac_sweep_corners`] and
    /// [`crate::noise::noise_analysis_corners`] keep the reduced pencil,
    /// and the stamp patterns, base factor and adjoint scratch of their
    /// shared adjoint row, here between evaluations.
    pub fn ac_workspace(&mut self) -> &mut crate::ac::AcWorkspace {
        &mut self.ac
    }
}

/// The minimum conductance from every node to ground (S): the floor of
/// the DC homotopy, the regularization of every Newton solve (operating
/// point and transient time points alike), and the one the small-signal
/// linearization ([`crate::ac::AcSolver::new`]) stamps, so the analyses
/// agree on nodes with no DC path.
pub const GMIN: f64 = 1e-12;

/// Maximum Newton iterations per gmin stage (or transient time point).
const MAX_ITER: usize = 150;
/// Convergence tolerance on the largest Newton update (V, A).
const TOL: f64 = 1e-9;
/// Maximum per-node voltage change per Newton step (damping, V).
const DV_MAX: f64 = 0.3;

/// Options for the DC solve. The transient's initial operating point runs
/// on them too (see [`crate::tran::TranOptions::dc`]); the Newton
/// iteration cap, tolerance and damping are fixed in this module.
#[derive(Debug, Clone, PartialEq)]
pub struct DcOptions {
    /// Initial guess applied to every non-ground node (typically `vdd/2`).
    pub initial_v: f64,
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions { initial_v: 0.5 }
    }
}

/// Small-signal data for one MOSFET at the operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosOp {
    /// Index of the MOSFET in [`Circuit::elements`].
    pub elem_index: usize,
    /// Drain current magnitude (A).
    pub id: f64,
    /// Transconductance (S).
    pub gm: f64,
    /// Output conductance (S).
    pub gds: f64,
    /// Gate-source capacitance (F), terminals already orientation-resolved.
    pub cgs: f64,
    /// Gate-drain capacitance (F).
    pub cgd: f64,
    /// Drain-bulk junction capacitance (F); bulk is AC ground.
    pub cdb: f64,
    /// Source-bulk junction capacitance (F).
    pub csb: f64,
    /// Operating region.
    pub region: MosRegion,
    /// Effective drain terminal after orientation (channel is symmetric).
    pub a_d: Node,
    /// Effective source terminal after orientation.
    pub a_s: Node,
    /// Gate terminal.
    pub g: Node,
}

/// A solved DC operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct OpPoint {
    node_v: Vec<f64>,
    branch_i: Vec<f64>,
    mos: Vec<MosOp>,
    iterations: usize,
    warm_started: bool,
}

impl OpPoint {
    /// Voltage at a node (ground reads 0).
    pub fn voltage(&self, n: Node) -> f64 {
        self.node_v[n.index()]
    }

    /// All node voltages indexed by node id (entry 0 is ground).
    pub fn voltages(&self) -> &[f64] {
        &self.node_v
    }

    /// Branch current of the `k`-th voltage source (in insertion order).
    /// Positive current flows from the `p` terminal through the source to
    /// `n`.
    pub fn vsource_current(&self, k: usize) -> f64 {
        self.branch_i[k]
    }

    /// Per-MOSFET small-signal data, in element order.
    pub fn mosfets(&self) -> &[MosOp] {
        &self.mos
    }

    /// Newton iterations spent (across all gmin stages).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the solve converged from a warm initial guess (rather than
    /// the cold `initial_v` start or the gmin homotopy).
    pub fn warm_started(&self) -> bool {
        self.warm_started
    }

    /// The raw MNA solution vector — node voltages excluding ground
    /// followed by voltage-source branch currents — usable as the
    /// warm-start guess for a subsequent solve of a same-structure circuit.
    pub fn mna_vector(&self) -> Vec<f64> {
        self.node_v[1..]
            .iter()
            .chain(self.branch_i.iter())
            .copied()
            .collect()
    }
}

/// Orientation-resolved large-signal MOSFET evaluation.
///
/// Returns `(a_d, a_s, id_signed_into_ad, gm, gds, region)` where
/// `id_signed_into_ad` is the current *leaving* node `a_d` into the device.
pub(crate) fn eval_mos_oriented(
    m: &Mosfet,
    v: impl Fn(Node) -> f64,
) -> (Node, Node, f64, f64, f64, MosRegion) {
    let s = match m.polarity {
        MosPolarity::Nmos => 1.0,
        MosPolarity::Pmos => -1.0,
    };
    let vds_e = s * (v(m.d) - v(m.s));
    let (a_d, a_s) = if vds_e >= 0.0 { (m.d, m.s) } else { (m.s, m.d) };
    let vgs_e = s * (v(m.g) - v(a_s));
    let vds_e = s * (v(a_d) - v(a_s));
    let e = m.model.eval(vgs_e, vds_e, m.w, m.l, m.mult);
    (a_d, a_s, s * e.id, e.gm, e.gds, e.region)
}

/// The MNA element stamps of one circuit: the residual and Jacobian of
/// the nonlinear system that the operating point and every transient time
/// point solve, and the conductance, VCCS and voltage-source-branch
/// stamps that the small-signal linearization ([`crate::ac::AcSolver`])
/// builds `G` and `C` from.
pub(crate) struct Assembler<'a> {
    ckt: &'a Circuit,
    dim: usize,
    nnodes: usize,
}

impl<'a> Assembler<'a> {
    pub(crate) fn new(ckt: &'a Circuit) -> Self {
        Assembler {
            ckt,
            dim: ckt.mna_dim(),
            nnodes: ckt.num_nodes(),
        }
    }

    fn idx(&self, n: Node) -> Option<usize> {
        self.ckt.mna_index(n)
    }

    /// The MNA row of the `k`-th voltage source's branch current.
    pub(crate) fn branch_row(&self, k: usize) -> usize {
        self.nnodes - 1 + k
    }

    /// The voltage of node `n` in the MNA vector `x` (ground reads 0).
    pub(crate) fn voltage(&self, x: &[f64], n: Node) -> f64 {
        self.idx(n).map_or(0.0, |i| x[i])
    }

    /// Assembles the Newton Jacobian into `j` (resized to the system
    /// dimension and zeroed) and the residual `f` at the point `x`, with
    /// the sources at `time`: `None` is the operating point (every
    /// source at its DC value), `Some(t)` a transient time point (step
    /// sources follow their waveforms). Capacitors are open; the
    /// transient adds their companions through [`Assembler::stamp_pair`].
    pub(crate) fn assemble(
        &self,
        x: &[f64],
        time: Option<f64>,
        gmin: f64,
        j: &mut Matrix<f64>,
        f: &mut [f64],
    ) {
        if j.rows() != self.dim || j.cols() != self.dim {
            *j = Matrix::zeros(self.dim, self.dim);
        } else {
            j.fill_zero();
        }
        f.iter_mut().for_each(|v| *v = 0.0);
        let volt = |n: Node| self.voltage(x, n);
        // gmin from every node to ground.
        for i in 0..(self.nnodes - 1) {
            j[(i, i)] += gmin;
            f[i] += gmin * x[i];
        }
        let mut vk = 0usize;
        for e in self.ckt.elements() {
            match e {
                Element::Resistor { p, n, r, .. } => {
                    let g = 1.0 / r;
                    let i = g * (volt(*p) - volt(*n));
                    self.stamp_pair(j, f, *p, *n, g, i);
                }
                Element::Capacitor { .. } => {} // open at DC
                Element::Vsource { p, n, dc, wave, .. } => {
                    let row = self.branch_row(vk);
                    let ibr = x[row];
                    if let Some(ip) = self.idx(*p) {
                        f[ip] += ibr;
                    }
                    if let Some(in_) = self.idx(*n) {
                        f[in_] -= ibr;
                    }
                    self.stamp_branch(j, *p, *n, row);
                    f[row] += volt(*p) - volt(*n) - wave.zip(time).map_or(*dc, |(w, t)| w.value(t));
                    vk += 1;
                }
                Element::Isource { p, n, dc, wave, .. } => {
                    let val = wave.zip(time).map_or(*dc, |(w, t)| w.value(t));
                    if let Some(ip) = self.idx(*p) {
                        f[ip] += val;
                    }
                    if let Some(in_) = self.idx(*n) {
                        f[in_] -= val;
                    }
                }
                Element::Vccs { op, on, cp, cn, gm } => {
                    let i = gm * (volt(*cp) - volt(*cn));
                    if let Some(iop) = self.idx(*op) {
                        f[iop] += i;
                    }
                    if let Some(ion) = self.idx(*on) {
                        f[ion] -= i;
                    }
                    self.stamp_vccs(j, *op, *on, *cp, *cn, *gm);
                }
                Element::Mos(m) => {
                    let (a_d, a_s, i_ad, gm, gds, _) = eval_mos_oriented(m, volt);
                    // Current leaves a_d, enters a_s.
                    // d i_ad / d v(g) = gm ; d/d v(a_d) = gds ; d/d v(a_s) = -(gm+gds)
                    if let Some(id_) = self.idx(a_d) {
                        f[id_] += i_ad;
                        if let Some(ig) = self.idx(m.g) {
                            j[(id_, ig)] += gm;
                        }
                        j[(id_, id_)] += gds;
                        if let Some(is_) = self.idx(a_s) {
                            j[(id_, is_)] += -(gm + gds);
                        }
                    }
                    if let Some(is_) = self.idx(a_s) {
                        f[is_] -= i_ad;
                        if let Some(ig) = self.idx(m.g) {
                            j[(is_, ig)] += -gm;
                        }
                        if let Some(id_) = self.idx(a_d) {
                            j[(is_, id_)] += -gds;
                        }
                        j[(is_, is_)] += gm + gds;
                    }
                }
            }
        }
    }

    /// Stamps a two-terminal conductance `g` carrying current `i` (p -> n)
    /// into the Jacobian `j` and the residual `f`.
    pub(crate) fn stamp_pair(
        &self,
        j: &mut Matrix<f64>,
        f: &mut [f64],
        p: Node,
        n: Node,
        g: f64,
        i: f64,
    ) {
        if let Some(ip) = self.idx(p) {
            f[ip] += i;
        }
        if let Some(in_) = self.idx(n) {
            f[in_] -= i;
        }
        self.stamp_conductance(j, p, n, g);
    }

    /// Stamps a conductance `g` between `p` and `n` into `m`.
    pub(crate) fn stamp_conductance(&self, m: &mut Matrix<f64>, p: Node, n: Node, g: f64) {
        if let Some(ip) = self.idx(p) {
            m[(ip, ip)] += g;
            if let Some(in_) = self.idx(n) {
                m[(ip, in_)] -= g;
            }
        }
        if let Some(in_) = self.idx(n) {
            m[(in_, in_)] += g;
            if let Some(ip) = self.idx(p) {
                m[(in_, ip)] -= g;
            }
        }
    }

    /// Stamps a transconductance `gm` into `m`: current `gm * v(cp, cn)`
    /// flows from `op` to `on`.
    pub(crate) fn stamp_vccs(
        &self,
        m: &mut Matrix<f64>,
        op: Node,
        on: Node,
        cp: Node,
        cn: Node,
        gm: f64,
    ) {
        if let Some(iop) = self.idx(op) {
            if let Some(icp) = self.idx(cp) {
                m[(iop, icp)] += gm;
            }
            if let Some(icn) = self.idx(cn) {
                m[(iop, icn)] -= gm;
            }
        }
        if let Some(ion) = self.idx(on) {
            if let Some(icp) = self.idx(cp) {
                m[(ion, icp)] -= gm;
            }
            if let Some(icn) = self.idx(cn) {
                m[(ion, icn)] += gm;
            }
        }
    }

    /// Stamps the `±1` incidence of a voltage source between `p` and `n`
    /// whose branch current is unknown `row`.
    pub(crate) fn stamp_branch(&self, m: &mut Matrix<f64>, p: Node, n: Node, row: usize) {
        if let Some(ip) = self.idx(p) {
            m[(ip, row)] += 1.0;
            m[(row, ip)] += 1.0;
        }
        if let Some(in_) = self.idx(n) {
            m[(in_, row)] -= 1.0;
            m[(row, in_)] -= 1.0;
        }
    }
}

/// Damped Newton–Raphson on the system `assemble` builds: it writes the
/// Jacobian and residual at the point `x` into its two buffers. Every
/// update of the first `nv` unknowns (the node voltages) is clamped to
/// [`DV_MAX`]; the iteration stops once no update exceeds [`TOL`].
/// The operating point and every transient time point run here. Returns
/// the iterations spent.
///
/// # Errors
///
/// [`SimError::DcNoConvergence`] after [`MAX_ITER`] iterations or on a
/// non-finite iterate; [`SimError::SingularMatrix`] from the LU.
pub(crate) fn newton_solve(
    x: &mut [f64],
    nv: usize,
    ws: &mut DcWorkspace,
    mut assemble: impl FnMut(&[f64], &mut Matrix<f64>, &mut [f64]),
) -> Result<usize, SimError> {
    let dim = x.len();
    ws.f.resize(dim, 0.0);
    ws.rhs.resize(dim, 0.0);
    for it in 0..MAX_ITER {
        assemble(x, &mut ws.j, &mut ws.f);
        for (r, v) in ws.rhs.iter_mut().zip(&ws.f) {
            *r = -v;
        }
        ws.lu.refactor(&ws.j, 1e-30)?;
        ws.lu.solve_into(&ws.rhs, &mut ws.dx);
        let mut maxd = 0.0f64;
        for (i, d) in ws.dx.iter().enumerate() {
            let step = if i < nv { d.clamp(-DV_MAX, DV_MAX) } else { *d };
            x[i] += step;
            maxd = maxd.max(d.abs());
        }
        if !x.iter().all(|v| v.is_finite()) {
            return Err(SimError::DcNoConvergence {
                iterations: it + 1,
                residual: f64::INFINITY,
            });
        }
        if maxd < TOL {
            return Ok(it + 1);
        }
    }
    let residual = ws.f.iter().fold(0.0f64, |a, b| a.max(b.abs()));
    Err(SimError::DcNoConvergence {
        iterations: MAX_ITER,
        residual,
    })
}

/// Solves the DC operating point of `ckt`.
///
/// Plain damped Newton is attempted first; on failure a gmin-stepping
/// homotopy (1e-3 S down to [`GMIN`] in decades) retries, reusing each
/// stage's solution as the next stage's initial guess.
///
/// # Errors
///
/// [`SimError::StructurallySingular`] when the cold Newton iteration
/// meets a Jacobian whose sparsity pattern has no full matching (two
/// voltage sources in parallel, a loop of sources), checked before
/// the homotopy; otherwise [`SimError::DcNoConvergence`] or
/// [`SimError::SingularMatrix`] if the homotopy also fails.
///
/// # Examples
///
/// ```
/// use autockt_sim::netlist::{Circuit, GND};
/// use autockt_sim::dc::{dc_operating_point, DcOptions};
///
/// # fn main() -> Result<(), autockt_sim::SimError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.isource(GND, a, 1e-3, 0.0); // push 1 mA into node a
/// ckt.resistor(a, GND, 1.0e3);
/// let op = dc_operating_point(&ckt, &DcOptions::default())?;
/// assert!((op.voltage(a) - 1.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point(ckt: &Circuit, opts: &DcOptions) -> Result<OpPoint, SimError> {
    dc_operating_point_warm(ckt, opts, None, &mut DcWorkspace::new())
}

/// Solves the DC operating point of `ckt`, optionally seeding Newton with
/// a previous solution.
///
/// `warm` is a full MNA solution vector (see [`OpPoint::mna_vector`]) from
/// a previous solve of a same-structure circuit; when it converges the
/// cold start is skipped entirely. A warm guess of the wrong dimension is
/// ignored, and warm non-convergence falls back to the cold
/// `initial_v` start followed by the gmin homotopy, so the result contract
/// is identical to [`dc_operating_point`]. `ws` supplies the reusable
/// matrix/LU buffers. [`WarmState::solve`] is the public way in.
///
/// Caveat: the fallback fires on *non-convergence only*. For a circuit
/// with multiple valid operating points (e.g. cross-coupled loads), a
/// warm guess near a different solution branch than the cold homotopy
/// would settle on converges cleanly to that branch and is accepted.
/// Callers must therefore supply warm vectors from *nearby* solutions —
/// one grid notch away in the sizing environments — where staying on the
/// cold branch is the overwhelmingly likely outcome (property-tested per
/// topology in `autockt_circuits`); arbitrary jumps should solve cold.
///
/// # Errors
///
/// Same contract as [`dc_operating_point`].
pub(crate) fn dc_operating_point_warm(
    ckt: &Circuit,
    opts: &DcOptions,
    warm: Option<&[f64]>,
    ws: &mut DcWorkspace,
) -> Result<OpPoint, SimError> {
    let asm = Assembler::new(ckt);
    let dim = asm.dim;
    let nv = asm.nnodes - 1;
    let mut x = vec![0.0; dim];
    let solve = |x: &mut [f64], gmin: f64, ws: &mut DcWorkspace| {
        newton_solve(x, nv, ws, |x, j, f| asm.assemble(x, None, gmin, j, f))
    };

    let mut total_iters = 0usize;
    let mut warm_started = false;
    if let Some(w) = warm {
        if w.len() == dim && w.iter().all(|v| v.is_finite()) {
            x.copy_from_slice(w);
            if let Ok(it) = solve(&mut x, GMIN, ws) {
                total_iters += it;
                warm_started = true;
            }
        }
    }
    if !warm_started {
        x.iter_mut().for_each(|v| *v = 0.0);
        x[..nv].iter_mut().for_each(|v| *v = opts.initial_v);
        let direct = solve(&mut x, GMIN, ws);
        match direct {
            Ok(it) => total_iters += it,
            Err(e) => {
                if matches!(e, SimError::SingularMatrix { .. }) {
                    // A singular Jacobian whose pattern cannot be matched
                    // is a property of the topology alone: no gmin value
                    // can repair an unmatched column, so report it before
                    // walking the homotopy.
                    structure::structural_check(&ws.j)?;
                }
                // gmin stepping homotopy.
                x.iter_mut().for_each(|v| *v = 0.0);
                x[..nv].iter_mut().for_each(|v| *v = opts.initial_v);
                let mut g = 1e-3;
                loop {
                    let it = solve(&mut x, g, ws)?;
                    total_iters += it;
                    if g <= GMIN * 1.0001 {
                        break;
                    }
                    g = (g * 0.1).max(GMIN);
                }
            }
        }
    }

    Ok(finish_op(ckt, &x, total_iters, warm_started))
}

/// Builds the [`OpPoint`] from a converged MNA solution vector.
fn finish_op(ckt: &Circuit, x: &[f64], iterations: usize, warm_started: bool) -> OpPoint {
    let nv = ckt.num_nodes() - 1;
    let asm = Assembler::new(ckt);
    let volt = |n: Node| asm.voltage(x, n);
    let mut node_v = vec![0.0; ckt.num_nodes()];
    node_v[1..].copy_from_slice(&x[..nv]);
    let branch_i: Vec<f64> = (0..ckt.num_vsources()).map(|k| x[nv + k]).collect();
    let mut mos = Vec::new();
    for (ei, e) in ckt.elements().iter().enumerate() {
        if let Element::Mos(m) = e {
            let (a_d, a_s, i_ad, gm, gds, region) = eval_mos_oriented(m, volt);
            let (cgs, cgd) = m.model.gate_caps(region, m.w, m.l, m.mult);
            let cj = m.model.junction_cap(m.w, m.mult);
            mos.push(MosOp {
                elem_index: ei,
                id: i_ad.abs(),
                gm,
                gds,
                cgs,
                cgd,
                cdb: cj,
                csb: cj,
                region,
                a_d,
                a_s,
                g: m.g,
            });
        }
    }
    OpPoint {
        node_v,
        branch_i,
        mos,
        iterations,
        warm_started,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MosPolarity, Technology};
    use crate::netlist::{Mosfet, GND};

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, GND, 3.0, 0.0);
        ckt.resistor(a, b, 2.0e3);
        ckt.resistor(b, GND, 1.0e3);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-6);
        // Source current: 3V over 3k = 1 mA flowing p->n inside source
        // means -1 mA (the source delivers current out of its + terminal).
        assert!((op.vsource_current(0) + 1.0e-3).abs() < 1e-8);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.isource(GND, a, 2e-3, 0.0);
        ckt.resistor(a, GND, 500.0);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vccs_transresistance() {
        // VCCS driven by a divider: i = gm * v(ctrl), into a load resistor.
        let mut ckt = Circuit::new();
        let c = ckt.node("ctrl");
        let o = ckt.node("out");
        ckt.vsource(c, GND, 0.5, 0.0);
        ckt.vccs(GND, o, c, GND, 1e-3); // pushes gm*v into node o
        ckt.resistor(o, GND, 1.0e3);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage(o) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn nmos_diode_connected_bias() {
        // Diode-connected NMOS pulled up through a resistor: solves the
        // classic vgs = f(id) fixed point.
        let t = Technology::ptm45();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("gate");
        ckt.vsource(vdd, GND, 1.0, 0.0);
        ckt.resistor(vdd, g, 10.0e3);
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: g,
            g,
            s: GND,
            w: 2e-6,
            l: t.lmin,
            mult: 1.0,
            model: t.nmos,
        });
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let vg = op.voltage(g);
        assert!(vg > t.nmos.vth0 && vg < 1.0, "vg = {vg}");
        // KCL: resistor current equals device current.
        let ir = (1.0 - vg) / 10.0e3;
        let m = &op.mosfets()[0];
        assert!((m.id - ir).abs() / ir < 1e-5);
        assert_eq!(m.region, MosRegion::Saturation);
    }

    #[test]
    fn pmos_common_source_inverting() {
        // PMOS with source at VDD, gate low -> device on, output pulled up.
        let t = Technology::ptm45();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let o = ckt.node("o");
        ckt.vsource(vdd, GND, 1.0, 0.0);
        ckt.vsource(g, GND, 0.3, 0.0); // vsg = 0.7 > vth
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Pmos,
            d: o,
            g,
            s: vdd,
            w: 4e-6,
            l: t.lmin,
            mult: 1.0,
            model: t.pmos,
        });
        ckt.resistor(o, GND, 2.0e3);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let vo = op.voltage(o);
        assert!(vo > 0.2, "pmos should pull output up, vo = {vo}");
        let m = &op.mosfets()[0];
        assert!((m.id - vo / 2.0e3).abs() / m.id < 1e-5);
    }

    #[test]
    fn cmos_inverter_transfer_is_inverting() {
        // Low input -> high output; high input -> low output; and the
        // transfer is monotonically decreasing across the sweep.
        let t = Technology::ptm45();
        let build = |vin: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let g = ckt.node("g");
            let o = ckt.node("o");
            ckt.vsource(vdd, GND, 1.0, 0.0);
            ckt.vsource(g, GND, vin, 0.0);
            ckt.mosfet(Mosfet {
                polarity: MosPolarity::Nmos,
                d: o,
                g,
                s: GND,
                w: 1e-6,
                l: t.lmin,
                mult: 1.0,
                model: t.nmos,
            });
            ckt.mosfet(Mosfet {
                polarity: MosPolarity::Pmos,
                d: o,
                g,
                s: vdd,
                w: 2.4e-6,
                l: t.lmin,
                mult: 1.0,
                model: t.pmos,
            });
            (ckt, o)
        };
        let mut prev = f64::INFINITY;
        for vin in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let (ckt, o) = build(vin);
            let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
            let vo = op.voltage(o);
            assert!(
                vo <= prev + 1e-9,
                "inverter transfer must fall: {vo} after {prev}"
            );
            prev = vo;
        }
        let (lo, o1) = build(0.1);
        let vo_hi = dc_operating_point(&lo, &DcOptions::default())
            .unwrap()
            .voltage(o1);
        assert!(vo_hi > 0.9, "low input gives high output, got {vo_hi}");
        let (hi, o2) = build(0.9);
        let vo_lo = dc_operating_point(&hi, &DcOptions::default())
            .unwrap()
            .voltage(o2);
        assert!(vo_lo < 0.1, "high input gives low output, got {vo_lo}");
    }

    #[test]
    fn capacitor_node_regularized_by_gmin() {
        // A node connected only through a capacitor has no DC path; gmin
        // must keep the matrix solvable.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource(a, GND, 1.0, 0.0);
        ckt.capacitor(a, b, 1e-12);
        ckt.capacitor(b, GND, 1e-12);
        let op = dc_operating_point(&ckt, &DcOptions::default());
        assert!(op.is_ok());
    }

    #[test]
    fn no_convergence_is_reported_not_hung() {
        // A pathological circuit: two voltage sources in parallel with
        // conflicting values is singular/inconsistent.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, GND, 1.0, 0.0);
        ckt.vsource(a, GND, 2.0, 0.0);
        let r = dc_operating_point(&ckt, &DcOptions::default());
        assert!(r.is_err());
    }

    fn nmos_diode_circuit(r: f64) -> (Circuit, Node) {
        let t = Technology::ptm45();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("gate");
        ckt.vsource(vdd, GND, 1.0, 0.0);
        ckt.resistor(vdd, g, r);
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: g,
            g,
            s: GND,
            w: 2e-6,
            l: t.lmin,
            mult: 1.0,
            model: t.nmos,
        });
        (ckt, g)
    }

    #[test]
    fn warm_start_matches_cold_solution() {
        let (a, ga) = nmos_diode_circuit(10.0e3);
        let cold_a = dc_operating_point(&a, &DcOptions::default()).unwrap();
        // A slightly different circuit (nudged resistor), solved warm from
        // the first solution, must agree with its own cold solve.
        let (b, gb) = nmos_diode_circuit(11.0e3);
        let mut ws = DcWorkspace::new();
        let warm = cold_a.mna_vector();
        let warm_b =
            dc_operating_point_warm(&b, &DcOptions::default(), Some(&warm), &mut ws).unwrap();
        let cold_b = dc_operating_point(&b, &DcOptions::default()).unwrap();
        assert!(warm_b.warm_started());
        assert!(!cold_b.warm_started());
        assert!((warm_b.voltage(gb) - cold_b.voltage(gb)).abs() < 1e-7);
        assert!(warm_b.iterations() <= cold_b.iterations());
        let _ = ga;
    }

    #[test]
    fn warm_guess_of_wrong_dimension_is_ignored() {
        let (ckt, g) = nmos_diode_circuit(10.0e3);
        let mut ws = DcWorkspace::new();
        let bogus = vec![0.5; 99];
        let op =
            dc_operating_point_warm(&ckt, &DcOptions::default(), Some(&bogus), &mut ws).unwrap();
        assert!(!op.warm_started());
        let cold = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!((op.voltage(g) - cold.voltage(g)).abs() < 1e-12);
    }

    #[test]
    fn warm_state_slots_round_trip() {
        let (ckt, _) = nmos_diode_circuit(10.0e3);
        let mut state = WarmState::new();
        assert!(!state.is_warm());
        let first = state.solve(0, &ckt, &DcOptions::default()).unwrap();
        assert!(!first.warm_started());
        assert!(state.is_warm());
        let second = state.solve(0, &ckt, &DcOptions::default()).unwrap();
        assert!(second.warm_started());
        // Warm revisit of the identical circuit converges immediately.
        assert!(second.iterations() <= first.iterations());
        state.reset();
        assert!(!state.is_warm());
        let third = state.solve(0, &ckt, &DcOptions::default()).unwrap();
        assert!(!third.warm_started());
    }

    #[test]
    fn warm_state_failure_clears_slot() {
        // An inconsistent netlist fails to solve; the slot must not retain
        // stale state afterwards.
        let mut bad = Circuit::new();
        let a = bad.node("a");
        bad.vsource(a, GND, 1.0, 0.0);
        bad.vsource(a, GND, 2.0, 0.0);
        let mut state = WarmState::new();
        let (good, _) = nmos_diode_circuit(10.0e3);
        state.solve(0, &good, &DcOptions::default()).unwrap();
        assert!(state.is_warm());
        assert!(state.solve(0, &bad, &DcOptions::default()).is_err());
        assert!(!state.is_warm());
    }

    #[test]
    fn poisoned_warm_guess_falls_back_to_cold() {
        // A finite but absurd warm guess cannot converge within the
        // damped iteration budget; the solve must fall back to the cold
        // start and land on the cold solution exactly.
        let (a, _) = nmos_diode_circuit(10.0e3);
        let cold = dc_operating_point(&a, &DcOptions::default()).unwrap();
        let poisoned = vec![1.0e3; cold.mna_vector().len()];
        let mut ws = DcWorkspace::new();
        let op =
            dc_operating_point_warm(&a, &DcOptions::default(), Some(&poisoned), &mut ws).unwrap();
        assert!(!op.warm_started(), "poisoned guess must not 'converge'");
        assert_eq!(op.mna_vector(), cold.mna_vector());
    }

    #[test]
    fn iterations_counted() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource(a, GND, 1.0, 0.0);
        ckt.resistor(a, GND, 1e3);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        assert!(op.iterations() >= 1);
    }
}
