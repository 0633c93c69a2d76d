//! Small-signal noise analysis.
//!
//! Every thermal resistor and MOSFET contributes a current-noise power
//! spectral density between its terminals; the weighted sum of the
//! squared transfers from each unit injection to the output is the output
//! noise PSD, and dividing by the squared signal gain refers it to the
//! input.
//!
//! The pencil is reduced once per operating point
//! ([`crate::linalg::pencil`]) and each injection is projected by `Qᵀ`
//! once. Every frequency point is then one transposed Hessenberg solve
//! from the output row (in lockstep passes of
//! [`crate::linalg::pencil::LANES`] points), whose solution gives the
//! signal gain and every source's transfer as one dot product each. The
//! per-point dense LU ([`AcSolver::factor_at`]) stays as the oracle this
//! path is tested against.
//!
//! Worst-case PVT evaluations run the analysis over a *corner set* of
//! same-structure circuits. Cold evaluations call [`noise_analysis_ws`]
//! once per corner; warm ones call [`noise_analysis_corners`], which at
//! dense-mesh dims works on adjoints: the output's response to the signal
//! source and to every noise injection is a dot product with one vector
//! `A_b⁻ᵀ e_out` per corner, the adjoint-network method of SPICE's
//! `.NOISE`. Those vectors come from the adjoint row the AC corner sweep
//! shares ([`crate::ac::ac_sweep_corners`]): the **base corner factored
//! once per frequency**, its adjoint from one transposed solve, and each
//! sibling's from a rank-`|R|` transposed Woodbury correction
//! (`crate::linalg::correction`), so the number of noise sources never
//! multiplies the solves. Exact to roundoff (the warm path's
//! solver-tolerance contract); at stock dims it runs the reduced scalar
//! path per corner.

use crate::ac::{
    dot, lane_omegas, validate_freqs, AcBatchWorkspace, AcSolver, AcWorkspace, AdjointRead,
    CornerAdjoint, CornerSet,
};
use crate::complex::Complex;
use crate::dc::OpPoint;
use crate::device::BOLTZMANN;
use crate::error::SimError;
use crate::linalg::pencil::LANES;
use crate::measure::integrate_trapezoid;
use crate::netlist::{Circuit, Element, Node};

/// Result of a noise analysis over a frequency grid.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseResult {
    /// Frequency grid (Hz).
    pub freqs: Vec<f64>,
    /// Output noise voltage PSD (V^2/Hz) at each grid point.
    pub out_psd: Vec<f64>,
    /// Signal gain magnitude from the netlist's AC sources to the output.
    pub gain: Vec<f64>,
    /// Total integrated output noise (V rms).
    pub out_vrms: f64,
    /// Input-referred integrated noise (rms, in units of the AC source:
    /// volts for a voltage-driven circuit, amperes for current-driven).
    /// Grid points whose gain is below [`GAIN_FLOOR_REL`] of the peak
    /// gain (a notch, or a point far past the poles) are excluded from
    /// the referral integral instead of dividing by a near-zero gain.
    pub input_referred_rms: f64,
}

/// Relative gain floor for input referral: a grid point whose signal gain
/// is below this fraction of the peak gain carries no usable signal, so
/// dividing the output PSD by its squared gain would let a single notch
/// or far-past-the-poles point dominate (astronomically inflate) the
/// input-referred integral. Such points are excluded segment-wise from
/// the referral integration; the output-noise integral is unaffected.
pub const GAIN_FLOOR_REL: f64 = 1e-6;

struct NoiseSource {
    p: Node,
    n: Node,
    /// (thermal/white PSD, gm-squared flicker prefactor) — evaluated as
    /// `white + flicker_pref / f`.
    white: f64,
    flicker_pref: f64,
}

impl NoiseSource {
    /// Current-noise PSD at frequency `f` (A^2/Hz). The flicker term is
    /// clamped at 1 mHz — the 1/f integral diverges toward DC, and the
    /// frequency grid is validated strictly positive before any analysis.
    fn psd_at(&self, f: f64) -> f64 {
        self.white + self.flicker_pref / f.max(1e-3)
    }
}

/// Enumerates the circuit's noise sources at `temp_k`, pairing each MOS
/// element with its operating-point entry. A circuit/op mismatch is a
/// caller bug but not a library panic: it reports
/// [`SimError::BadNetlist`] (the deployment path learned in PR 3 that
/// library code must fail, not abort, on inconsistent inputs).
fn collect_sources(ckt: &Circuit, op: &OpPoint, temp_k: f64) -> Result<Vec<NoiseSource>, SimError> {
    let n_mos = ckt
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::Mos(_)))
        .count();
    if n_mos != op.mosfets().len() {
        return Err(SimError::BadNetlist {
            what: format!(
                "operating point out of sync with circuit: {} MOS operating entries for {n_mos} MOS elements",
                op.mosfets().len()
            ),
        });
    }
    let mut sources = Vec::new();
    let mut mos_iter = op.mosfets().iter();
    for e in ckt.elements() {
        match e {
            Element::Resistor { p, n, r, noisy } if *noisy => {
                sources.push(NoiseSource {
                    p: *p,
                    n: *n,
                    white: 4.0 * BOLTZMANN * temp_k / r,
                    flicker_pref: 0.0,
                });
            }
            Element::Mos(m) => {
                // lint:allow(panic) — MOS counts are verified against the
                // operating point above, so the iterator cannot run dry.
                let mi = mos_iter.next().expect("MOS count verified");
                let white = m.model.thermal_noise_psd(mi.gm, temp_k);
                // flicker psd(f) = kf gm^2 / (Cox W L f)
                let flicker_pref = m.model.kf * mi.gm * mi.gm / (m.model.cox * m.w * m.l * m.mult);
                sources.push(NoiseSource {
                    p: mi.a_d,
                    n: mi.a_s,
                    white,
                    flicker_pref,
                });
            }
            _ => {}
        }
    }
    Ok(sources)
}

/// The scalar analysis' sweep: prepares `ws` for this solver (the
/// reduction, output row and projected injections) and samples
/// `(gain, psd)` at every grid point, in order, stopping at the first
/// failing point. Every [`LANES`] consecutive points are one lockstep
/// transposed solve against the shared reduction, then a dot product
/// for the gain and one per source, with the PSD accumulated in source
/// order; each lane is bitwise a one-point solve.
fn noise_points(
    solver: &AcSolver<'_>,
    sources: &[NoiseSource],
    out: Node,
    freqs: &[f64],
    ws: &mut AcWorkspace,
) -> Result<(Vec<f64>, Vec<f64>), SimError> {
    solver.prepare_workspace(ws);
    solver.prepare_output(out, &mut ws.red);
    let dim = solver.dim();
    let red = &mut ws.red;
    red.proj.clear();
    for s in sources {
        // Qᵀ u for the unit AC current u from p to n inside the source.
        let start = red.proj.len();
        red.proj.resize(start + dim, 0.0);
        let u = &mut red.proj[start..];
        if let Some(ip) = solver.mna_index(s.p) {
            u.iter_mut()
                .zip(red.pencil.q_row(ip))
                .for_each(|(a, q)| *a -= q);
        }
        if let Some(in_) = solver.mna_index(s.n) {
            u.iter_mut()
                .zip(red.pencil.q_row(in_))
                .for_each(|(a, q)| *a += q);
        }
    }
    let AcWorkspace { red, hess } = ws;
    let (mut gain, mut out_psd) = (
        Vec::with_capacity(freqs.len()),
        Vec::with_capacity(freqs.len()),
    );
    for chunk in freqs.chunks(LANES) {
        red.pencil
            .solve_transposed_lanes(&lane_omegas(chunk), &red.zo, hess);
        let mut psd = [0.0; LANES];
        for (s, u) in sources.iter().zip(red.proj.chunks_exact(dim.max(1))) {
            for ((p, d), &f) in psd.iter_mut().zip(hess.dot_re(u)).zip(chunk) {
                *p += d.norm_sqr() * s.psd_at(f);
            }
        }
        for (lane, (g, p)) in hess
            .dot(&red.qb)
            .into_iter()
            .zip(psd)
            .take(chunk.len())
            .enumerate()
        {
            hess.status(lane)?;
            gain.push(g.norm());
            out_psd.push(p);
        }
    }
    Ok((gain, out_psd))
}

/// Integrates the sampled PSDs into the result: total output noise over
/// the whole grid, input-referred noise over the segments whose gain
/// clears the per-point floor (see [`GAIN_FLOOR_REL`]).
///
/// A non-finite PSD or gain sample is a [`SimError::MeasureFailed`]: a NaN
/// would integrate into a NaN `out_vrms`, and the `f64::max` gain fold
/// skips NaN, so the result would pass as a number that no worst-case
/// fold can rank.
fn finalize(freqs: &[f64], out_psd: Vec<f64>, gain: Vec<f64>) -> Result<NoiseResult, SimError> {
    if !out_psd.iter().chain(&gain).all(|v| v.is_finite()) {
        return Err(SimError::MeasureFailed {
            what: "non-finite noise PSD or gain sample",
        });
    }
    let out_v2 = integrate_trapezoid(freqs, &out_psd);
    let out_vrms = out_v2.sqrt();
    let max_gain = gain.iter().cloned().fold(0.0f64, f64::max);
    if max_gain <= 0.0 || !max_gain.is_finite() {
        return Err(SimError::MeasureFailed {
            what: "zero signal gain; cannot refer noise to input",
        });
    }
    // Input-referred: divide the PSD by |gain|^2 pointwise and integrate
    // trapezoid segments whose *both* endpoints carry usable gain. A point
    // below the floor (a notch, or a grid point far past the poles) is
    // excluded rather than clamped — the old `(g*g).max(1e-30)` clamp let
    // one such point inflate the integral by many orders of magnitude
    // while the `max_gain > 0` check still passed.
    let floor = GAIN_FLOOR_REL * max_gain;
    let mut in_v2 = 0.0;
    let mut any_segment = false;
    for i in 1..freqs.len() {
        let (g0, g1) = (gain[i - 1], gain[i]);
        if g0 > floor && g1 > floor {
            let p0 = out_psd[i - 1] / (g0 * g0);
            let p1 = out_psd[i] / (g1 * g1);
            in_v2 += 0.5 * (p1 + p0) * (freqs[i] - freqs[i - 1]);
            any_segment = true;
        }
    }
    if freqs.len() > 1 && !any_segment {
        // Every segment had a below-floor endpoint: there is no band to
        // refer noise through. Reporting 0.0 here would read downstream
        // as "infinitely quiet" — fail honestly instead, like the
        // zero-gain case above.
        return Err(SimError::MeasureFailed {
            what: "no usable-gain segment; cannot refer noise to input",
        });
    }
    let input_referred_rms = in_v2.sqrt();

    Ok(NoiseResult {
        freqs: freqs.to_vec(),
        out_psd,
        gain,
        out_vrms,
        input_referred_rms,
    })
}

/// Runs a noise analysis at temperature `temp_k`, referred to the circuit's
/// own AC sources, measuring at node `out`: [`noise_analysis_ws`] on a
/// fresh workspace.
///
/// # Errors
///
/// [`SimError::InvalidOptions`] for a degenerate frequency grid (empty,
/// non-positive, or not strictly increasing), [`SimError::BadNetlist`]
/// when `op` does not belong to `ckt` (MOS count mismatch),
/// [`SimError::MeasureFailed`] if the signal gain is zero (nothing to
/// refer to) or a PSD or gain sample is non-finite, and propagates
/// factorization failures.
pub fn noise_analysis(
    ckt: &Circuit,
    op: &OpPoint,
    out: Node,
    freqs: &[f64],
    temp_k: f64,
) -> Result<NoiseResult, SimError> {
    noise_analysis_ws(ckt, op, out, freqs, temp_k, &mut AcWorkspace::new())
}

/// [`noise_analysis`] with reusable workspace buffers — no per-frequency
/// or per-source allocation; results are identical. The pencil is reduced
/// once and each frequency point is one transposed Hessenberg solve plus
/// a dot product per noise source. This is the one workspace entry point
/// of the noise analysis; warm evaluation sessions route through it.
///
/// # Errors
///
/// Same contract as [`noise_analysis`].
pub fn noise_analysis_ws(
    ckt: &Circuit,
    op: &OpPoint,
    out: Node,
    freqs: &[f64],
    temp_k: f64,
    ws: &mut AcWorkspace,
) -> Result<NoiseResult, SimError> {
    validate_freqs(freqs)?;
    let sources = collect_sources(ckt, op, temp_k)?;
    let solver = AcSolver::new(ckt, op);
    let (gain, out_psd) = noise_points(&solver, &sources, out, freqs, ws)?;
    finalize(freqs, out_psd, gain)
}

/// Per-corner scalar reference path of [`noise_analysis_corners`]: each
/// corner runs the exact [`noise_analysis_ws`] pipeline (same kernel, same
/// order) through the corner workspace's scalar buffers. This is the
/// fallback for structural mismatches, single-corner sets, and stock
/// dims where the correction cannot pay — bitwise-equal to calling
/// [`noise_analysis_ws`] per corner.
fn scalar_noise_ws(
    solvers: &[AcSolver<'_>],
    ops: &[&OpPoint],
    outs: &[Node],
    freqs: &[f64],
    temps: &[f64],
    ws: &mut AcBatchWorkspace,
) -> Vec<Result<NoiseResult, SimError>> {
    solvers
        .iter()
        .zip(ops)
        .zip(outs.iter().zip(temps))
        .map(|((solver, op), (&out, &temp_k))| {
            let sources = collect_sources(solver.circuit(), op, temp_k)?;
            let (gain, out_psd) = noise_points(solver, &sources, out, freqs, &mut ws.scalar)?;
            finalize(freqs, out_psd, gain)
        })
        .collect()
}

/// Collects each corner's noise sources, or `None` when any corner fails
/// or the corners disagree in source count or injection nodes (the
/// adjoint row reads one injection list; corner sets always share it, so
/// this is a safety valve) — callers then route through the scalar path,
/// which reports per-corner failures individually.
fn corner_sources(
    solvers: &[AcSolver<'_>],
    ops: &[&OpPoint],
    temps: &[f64],
) -> Option<Vec<Vec<NoiseSource>>> {
    let all = solvers
        .iter()
        .zip(ops)
        .zip(temps)
        .map(|((s, op), &t)| collect_sources(s.circuit(), op, t).ok())
        .collect::<Option<Vec<_>>>()?;
    let same = |srcs: &Vec<NoiseSource>| {
        srcs.len() == all[0].len()
            && srcs
                .iter()
                .zip(&all[0])
                .all(|(a, b)| a.p == b.p && a.n == b.n)
    };
    all.iter().all(same).then_some(all)
}

/// Reads one point off a corner's adjoint vector `z = A⁻ᵀ e_out`: the
/// signal gain `|z · b|` for the source vector `b`, and the output PSD
/// `Σ_s |z · u_s|² psd_s(f)`, where the unit injection `u_s` is `-1` at
/// the source's `p` and `+1` at its `n`, so `z · u_s = z[n] - z[p]`.
fn adjoint_point(
    z: &[Complex],
    rhs: &[Complex],
    sources: &[NoiseSource],
    inj: &[(Option<usize>, Option<usize>)],
    fq: f64,
) -> (f64, f64) {
    let at = |i: Option<usize>| i.map_or(Complex::ZERO, |i| z[i]);
    let mut psd = 0.0;
    for (s, &(ip, in_)) in sources.iter().zip(inj) {
        psd += (at(in_) - at(ip)).norm_sqr() * s.psd_at(fq);
    }
    (dot(z, rhs).norm(), psd)
}

/// [`noise_analysis_corners`]' reading of the adjoint row: each corner's
/// adjoint `z_b`, formed where the row leaves it corrected, gives its
/// `(gain, psd)` through [`adjoint_point`].
struct NoiseRead<'a> {
    rhs: &'a [Complex],
    sources: Vec<Vec<NoiseSource>>,
    /// Each source's `(p, n)` MNA indices, shared by every corner.
    inj: Vec<(Option<usize>, Option<usize>)>,
    /// A corrected corner's formed adjoint.
    z_b: Vec<Complex>,
}

impl AdjointRead for NoiseRead<'_> {
    type Point = (f64, f64);

    fn corner(&mut self, b: usize, fq: f64, adj: CornerAdjoint<'_>) -> (f64, f64) {
        let z_b = match adj {
            CornerAdjoint::Formed(z) => z,
            CornerAdjoint::Corrected { z, v, q } => {
                self.z_b.clear();
                self.z_b.extend_from_slice(z);
                for (vc, &qc) in v.chunks_exact(z.len()).zip(q) {
                    for (zi, &vi) in self.z_b.iter_mut().zip(vc) {
                        *zi -= qc * vi;
                    }
                }
                &self.z_b
            }
        };
        adjoint_point(z_b, self.rhs, &self.sources[b], &self.inj, fq)
    }
}

/// Corner-**corrected** noise analysis: the fast path of the warm corner
/// engine. PVT corner systems differ only in their device stamps — the
/// parasitic mesh, passives, sources, and regularization are shared — and
/// every quantity the analysis reads is one entry of a solution: the
/// output's response to the source vector and to each noise source's unit
/// injection. All of them are dot products with one adjoint vector
/// `z_b = A_b⁻ᵀ e_out` per corner (the adjoint-network method of SPICE's
/// `.NOISE`).
///
/// At dense dims every corner's adjoint comes from the adjoint row the
/// AC corner sweep shares ([`crate::ac::ac_sweep_corners`]): per
/// frequency one base factorization, `1 + |C|` transposed solves, and per
/// corner one small `|R| x |R|` correction, after which this analysis
/// forms `z_b = z − Σ_c q_b[c]·V_c` and reads its gain and PSD. The number
/// of noise sources only enters through one dot product each.
///
/// The correction is algebraically exact; in floating point it agrees
/// with the direct per-corner analysis to roundoff — inside the warm
/// evaluation path's solver-tolerance contract; cold evaluations run
/// [`noise_analysis_ws`] per corner instead. Falls back to the scalar
/// per-corner path wherever the AC corner sweep does (a single corner,
/// stock dims `n <= 16`, differing dims, outputs or source vectors, a
/// ground output, or a difference support too wide to pay) and on
/// differing noise-source lists; falls back to a direct per-corner
/// factorization and adjoint solve at any frequency where the base factor
/// or a correction system is singular. A corner's analysis stops at its
/// first failing frequency.
///
/// # Panics
///
/// Panics unless `solvers`, `ops`, `outs`, and `temps` have equal length.
pub fn noise_analysis_corners(
    solvers: &[AcSolver<'_>],
    ops: &[&OpPoint],
    outs: &[Node],
    freqs: &[f64],
    temps: &[f64],
    ws: &mut AcBatchWorkspace,
) -> Vec<Result<NoiseResult, SimError>> {
    assert_eq!(solvers.len(), ops.len(), "one operating point per corner");
    assert_eq!(solvers.len(), outs.len(), "one output node per corner");
    assert_eq!(solvers.len(), temps.len(), "one temperature per corner");
    if let Err(e) = validate_freqs(freqs) {
        return solvers.iter().map(|_| Err(e.clone())).collect();
    }
    let Some(set) = CornerSet::new(solvers, outs, ws) else {
        return scalar_noise_ws(solvers, ops, outs, freqs, temps, ws);
    };
    let Some(sources) = corner_sources(solvers, ops, temps) else {
        return scalar_noise_ws(solvers, ops, outs, freqs, temps, ws);
    };
    let inj = sources[0]
        .iter()
        .map(|s| (solvers[0].mna_index(s.p), solvers[0].mna_index(s.n)))
        .collect();
    let mut read = NoiseRead {
        rhs: solvers[0].source_rhs(),
        sources,
        inj,
        z_b: Vec::new(),
    };
    set.sweep(freqs, ws, &mut read)
        .into_iter()
        .map(|pts| {
            let (gain, out_psd) = pts?.into_iter().unzip();
            finalize(freqs, out_psd, gain)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::log_freqs;
    use crate::dc::{dc_operating_point, DcOptions};
    use crate::netlist::GND;

    /// kT/C: integrated output noise of an RC filter is sqrt(kT/C)
    /// regardless of R.
    #[test]
    fn ktc_noise_of_rc_filter() {
        for r in [1.0e3, 10.0e3, 100.0e3] {
            let c = 1e-12;
            let mut ckt = Circuit::new();
            let i = ckt.node("in");
            let o = ckt.node("out");
            ckt.vsource(i, GND, 0.0, 1.0);
            ckt.resistor(i, o, r);
            ckt.capacitor(o, GND, c);
            let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
            // Integrate far past the pole so the Lorentzian tail is
            // captured: pole at 1/(2 pi R C).
            let fp = 1.0 / (2.0 * std::f64::consts::PI * r * c);
            let freqs = log_freqs(fp * 1e-3, fp * 1e3, 40);
            let nr = noise_analysis(&ckt, &op, o, &freqs, 300.0).unwrap();
            let expect = (BOLTZMANN * 300.0 / c).sqrt();
            let rel = (nr.out_vrms - expect).abs() / expect;
            assert!(
                rel < 0.05,
                "kT/C mismatch at R={r}: {} vs {expect}",
                nr.out_vrms
            );
        }
    }

    #[test]
    fn resistor_divider_input_referred_matches_output_over_gain() {
        // Divider gain 0.5: input-referred noise should be output noise / 0.5.
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        ckt.resistor(i, o, 1e3);
        ckt.resistor(o, GND, 1e3);
        ckt.capacitor(o, GND, 1e-12);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        // Integrate well below the output pole (~318 MHz) where the divider
        // gain is flat at 0.5, so input-referred = output / gain exactly.
        let freqs = log_freqs(1e3, 1e7, 30);
        let nr = noise_analysis(&ckt, &op, o, &freqs, 300.0).unwrap();
        let ratio = nr.input_referred_rms / nr.out_vrms;
        assert!((ratio - 2.0).abs() < 0.05, "ratio = {ratio}");
    }

    #[test]
    fn noiseless_resistor_is_silent() {
        let mut a = Circuit::new();
        let o1 = a.node("o");
        a.vsource(o1, GND, 0.0, 1.0);
        a.resistor_noiseless(o1, GND, 1e3);
        // A circuit whose only resistor is noiseless: output PSD ~ 0.
        let op = dc_operating_point(&a, &DcOptions::default()).unwrap();
        let nr = noise_analysis(&a, &op, o1, &log_freqs(1e3, 1e6, 10), 300.0).unwrap();
        assert!(nr.out_vrms < 1e-15);
    }

    #[test]
    fn mosfet_noise_increases_with_gm() {
        use crate::device::{MosPolarity, Technology};
        use crate::netlist::Mosfet;
        let t = Technology::ptm45();
        let build = |w: f64| {
            let mut ckt = Circuit::new();
            let vdd = ckt.node("vdd");
            let g = ckt.node("g");
            let o = ckt.node("o");
            ckt.vsource(vdd, GND, 1.0, 0.0);
            ckt.vsource(g, GND, 0.55, 1.0);
            ckt.resistor_noiseless(vdd, o, 5.0e3);
            ckt.capacitor(o, GND, 1e-13);
            ckt.mosfet(Mosfet {
                polarity: MosPolarity::Nmos,
                d: o,
                g,
                s: GND,
                w,
                l: 90e-9,
                mult: 1.0,
                model: t.nmos,
            });
            ckt
        };
        let freqs = log_freqs(1e4, 1e11, 20);
        let mut vals = Vec::new();
        for w in [1e-6, 4e-6] {
            let ckt = build(w);
            let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
            let nr = noise_analysis(&ckt, &op, crate::netlist::Node(3), &freqs, 300.0).unwrap();
            vals.push(nr.out_vrms);
        }
        // Wider device: more gm, more output noise current into the same
        // load (but also slightly different pole) — the dominant effect at
        // fixed load is increased noise.
        assert!(vals[1] > vals[0]);
    }

    /// A symmetric twin-T notch: exact transmission null at
    /// `f0 = 1/(2 pi R C)`, where the measured gain collapses to
    /// floating-point dust.
    fn twin_t_notch() -> (Circuit, Node, f64) {
        let r = 10.0e3;
        let c = 1e-9;
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let a = ckt.node("a");
        let b = ckt.node("b");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        // Low-pass T.
        ckt.resistor(i, a, r);
        ckt.resistor(a, o, r);
        ckt.capacitor(a, GND, 2.0 * c);
        // High-pass T.
        ckt.capacitor(i, b, c);
        ckt.capacitor(b, o, c);
        ckt.resistor(b, GND, r / 2.0);
        // Light load so `out` is a live MNA node.
        ckt.resistor_noiseless(o, GND, 10.0e6);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        (ckt, o, f0)
    }

    #[test]
    fn notch_point_does_not_inflate_input_referred_noise() {
        // Regression: a single near-zero-gain grid point (the notch) used
        // to divide the output PSD by ~0 and dominate the input-referred
        // integral by tens of orders of magnitude, while the `max_gain`
        // check still passed. Such points are now excluded per point.
        let (ckt, o, f0) = twin_t_notch();
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let mut with_notch = log_freqs(f0 * 1e-2, f0 * 1e2, 6);
        with_notch.push(f0);
        with_notch.sort_by(|a, b| a.partial_cmp(b).unwrap());
        with_notch.dedup();
        let without_notch: Vec<f64> = with_notch.iter().cloned().filter(|f| *f != f0).collect();
        let nr_with = noise_analysis(&ckt, &op, o, &with_notch, 300.0).unwrap();
        let nr_without = noise_analysis(&ckt, &op, o, &without_notch, 300.0).unwrap();
        // The notch gain really is floating-point dust relative to peak.
        let min_g = nr_with.gain.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_g = nr_with.gain.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            min_g < GAIN_FLOOR_REL * max_g,
            "notch not deep enough: {min_g} vs {max_g}"
        );
        // Including the notch point must not blow the referral up; the
        // old clamp produced a ratio of ~1e8 or worse here.
        let ratio = nr_with.input_referred_rms / nr_without.input_referred_rms;
        assert!(
            ratio < 3.0,
            "notch point inflated input-referred noise {ratio}x"
        );
        // The output-side integral is untouched by the exclusion.
        assert!(
            (nr_with.out_vrms - nr_without.out_vrms).abs() <= 0.05 * nr_without.out_vrms.max(1e-30)
        );
    }

    #[test]
    fn all_segments_excluded_is_an_error_not_silent_zero() {
        // A two-point grid whose second point sits in the notch: the
        // max-gain check passes (point one is healthy) but every
        // trapezoid segment has a below-floor endpoint, so there is no
        // band to refer through — that must fail, not report 0.0 rms
        // (which downstream worst-case folds would read as "infinitely
        // quiet").
        let (ckt, o, f0) = twin_t_notch();
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let r = noise_analysis(&ckt, &op, o, &[f0 * 0.1, f0], 300.0);
        assert!(
            matches!(r, Err(SimError::MeasureFailed { .. })),
            "expected MeasureFailed, got {r:?}"
        );
    }

    #[test]
    fn out_of_sync_operating_point_is_an_error_not_a_panic() {
        use crate::device::{MosPolarity, Technology};
        use crate::netlist::Mosfet;
        let t = Technology::ptm45();
        // Circuit A: plain RC — its op has zero MOS entries.
        let mut a = Circuit::new();
        let ia = a.node("in");
        let oa = a.node("out");
        a.vsource(ia, GND, 0.0, 1.0);
        a.resistor(ia, oa, 1e3);
        a.capacitor(oa, GND, 1e-12);
        let op_a = dc_operating_point(&a, &DcOptions::default()).unwrap();
        // Circuit B: same nodes plus a MOSFET.
        let mut b = Circuit::new();
        let ib = b.node("in");
        let ob = b.node("out");
        b.vsource(ib, GND, 0.55, 1.0);
        b.resistor(ib, ob, 1e3);
        b.capacitor(ob, GND, 1e-12);
        b.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: ob,
            g: ib,
            s: GND,
            w: 1e-6,
            l: 90e-9,
            mult: 1.0,
            model: t.nmos,
        });
        let r = noise_analysis(&b, &op_a, ob, &log_freqs(1e3, 1e6, 4), 300.0);
        assert!(
            matches!(r, Err(SimError::BadNetlist { .. })),
            "expected BadNetlist, got {r:?}"
        );
    }

    #[test]
    fn non_finite_samples_are_measure_failures() {
        // A NaN sample would integrate into `out_vrms = NaN`, which a
        // worst-case fold through `f64::min`/`max` silently drops.
        let freqs = [1e3, 1e4, 1e5];
        for (psd, gain) in [
            ([1e-18, f64::NAN, 1e-18], [1.0, 1.0, 1.0]),
            ([1e-18, 1e-18, f64::INFINITY], [1.0, 1.0, 1.0]),
            ([1e-18, 1e-18, 1e-18], [1.0, f64::NAN, 1.0]),
        ] {
            let r = finalize(&freqs, psd.to_vec(), gain.to_vec());
            assert!(
                matches!(r, Err(SimError::MeasureFailed { .. })),
                "psd {psd:?}, gain {gain:?}: {r:?}"
            );
        }
        assert!(finalize(&freqs, vec![1e-18; 3], vec![1.0; 3]).is_ok());
    }

    #[test]
    fn degenerate_frequency_grids_are_rejected() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource(i, GND, 0.0, 1.0);
        ckt.resistor(i, o, 1e3);
        ckt.capacitor(o, GND, 1e-12);
        let op = dc_operating_point(&ckt, &DcOptions::default()).unwrap();
        let bad: [&[f64]; 5] = [
            &[],
            &[0.0, 1e3],
            &[-1.0, 1e3],
            &[1e3, 1e2],
            &[1e3, 1e3, 1e4],
        ];
        for freqs in bad {
            let r = noise_analysis(&ckt, &op, o, freqs, 300.0);
            assert!(
                matches!(r, Err(SimError::InvalidOptions { .. })),
                "grid {freqs:?} accepted: {r:?}"
            );
        }
        // A valid grid still passes.
        assert!(noise_analysis(&ckt, &op, o, &[1e3, 1e4, 1e5], 300.0).is_ok());
    }
}
