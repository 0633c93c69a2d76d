//! Property: the corner-batched noise analysis and AC sweep are
//! equivalent to their scalar per-corner references.
//!
//! [`noise_analysis_corners`] and [`ac_sweep_corners`] share one adjoint
//! row per frequency point, which recovers each sibling's adjoint through
//! the base-plus-Woodbury correction. That is algebraically exact, so
//! both must agree with the scalar paths (each corner alone: a one-corner
//! call of the same entry point, which runs the scalar kernel) to
//! roundoff (far inside the warm path's solver-tolerance contract); at
//! stock dims (`n <= 16`), and for corner sets that differ in output or
//! read ground, they fall back to the scalar paths and the comparison
//! tightens to bitwise.
//!
//! A second reference shares no code with either corner path: per grid
//! point it factors each corner's system with [`AcSolver::factor_at`] and
//! solves the signal source (the transfer [`AcSolver::solve_sources`]
//! reads) and one right-hand side per noise injection, with the sources
//! enumerated here from the netlist and the device models' public noise
//! parameters.

use autockt_sim::ac::{ac_sweep_corners, log_freqs, AcSolver, AcWorkspace};
use autockt_sim::complex::Complex;
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint};
use autockt_sim::device::{MosPolarity, Technology, BOLTZMANN};
use autockt_sim::netlist::{Circuit, Element, Mosfet, Node, GND};
use autockt_sim::noise::{noise_analysis, noise_analysis_corners, NoiseResult};
use autockt_sim::SimError;
use proptest::prelude::*;

/// A common-source amplifier driving a `depth`-segment RC mesh — the
/// worst-case-PVT shape: the mesh (and every passive) is shared by all
/// corners, only the device stamps differ with `w`.
fn amp_with_mesh(w: f64, depth: usize) -> (Circuit, Node) {
    let t = Technology::ptm45();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let d = ckt.node("d");
    ckt.vsource(vdd, GND, 1.0, 0.0);
    ckt.vsource(g, GND, 0.55, 1.0);
    ckt.resistor(vdd, d, 5.0e3);
    ckt.mosfet(Mosfet {
        polarity: MosPolarity::Nmos,
        d,
        g,
        s: GND,
        w,
        l: 90e-9,
        mult: 1.0,
        model: t.nmos,
    });
    let mut prev = d;
    for s in 0..depth {
        let n = ckt.node(&format!("m{s}"));
        ckt.resistor(prev, n, 1.0e3);
        ckt.capacitor(n, GND, 2e-15);
        prev = n;
    }
    let out = ckt.node("out");
    ckt.resistor(prev, out, 1.0e3);
    ckt.capacitor(out, GND, 1e-13);
    (ckt, out)
}

/// Builds the corner set, solves every operating point cold, and returns
/// everything the corner entry point needs.
#[allow(clippy::type_complexity)]
fn corner_set(widths: &[f64], depth: usize) -> (Vec<(Circuit, Node)>, Vec<OpPoint>, Vec<f64>) {
    let variants: Vec<(Circuit, Node)> = widths.iter().map(|&w| amp_with_mesh(w, depth)).collect();
    let ops: Vec<OpPoint> = variants
        .iter()
        .map(|(ckt, _)| dc_operating_point(ckt, &DcOptions::default()).expect("amp solves"))
        .collect();
    // Corner temperatures vary like a PVT set (enters the PSD weights).
    let temps: Vec<f64> = (0..widths.len())
        .map(|i| 233.15 + 50.0 * i as f64)
        .collect();
    (variants, ops, temps)
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
}

/// Each corner's full AC transfer through the scalar per-corner sweep (a
/// one-corner [`ac_sweep_corners`] call per corner, on one workspace),
/// the reference of the corner sweep at stock dims and on fallbacks.
fn scalar_transfers(
    solvers: &[AcSolver<'_>],
    outs: &[Node],
    freqs: &[f64],
) -> Vec<Result<Vec<Complex>, SimError>> {
    let mut ws = AcWorkspace::new();
    (0..solvers.len())
        .flat_map(|b| corner_transfers(&solvers[b..=b], &outs[b..=b], freqs, &mut ws))
        .collect()
}

/// Each corner's noise analysis through the scalar kernel (a one-corner
/// [`noise_analysis_corners`] call per corner, on one workspace), the
/// reference of the corner analysis at stock dims and on fallbacks.
fn scalar_noises(
    solvers: &[AcSolver<'_>],
    ops: &[&OpPoint],
    outs: &[Node],
    freqs: &[f64],
    temps: &[f64],
) -> Vec<Result<NoiseResult, SimError>> {
    let mut ws = AcWorkspace::new();
    (0..solvers.len())
        .flat_map(|b| {
            let r = b..b + 1;
            noise_analysis_corners(
                &solvers[r.clone()],
                &ops[r.clone()],
                &outs[r.clone()],
                freqs,
                &temps[r],
                &mut ws,
            )
        })
        .collect()
}

/// Each corner's full AC transfer through [`ac_sweep_corners`].
fn corner_transfers(
    solvers: &[AcSolver<'_>],
    outs: &[Node],
    freqs: &[f64],
    ws: &mut AcWorkspace,
) -> Vec<Result<Vec<Complex>, SimError>> {
    ac_sweep_corners(solvers, freqs, outs, None, ws)
        .into_iter()
        .map(|r| r.map(|resp| resp.h))
        .collect()
}

/// Runs the scalar reference per corner, then checks the corner analysis.
fn check_equivalence(widths: &[f64], depth: usize, bitwise_corners: bool) -> Result<(), String> {
    let (variants, ops, temps) = corner_set(widths, depth);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let op_refs: Vec<&OpPoint> = ops.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();
    let freqs = log_freqs(1e4, 1e10, 5);

    let scalar = scalar_noises(&solvers, &op_refs, &outs, &freqs, &temps);

    let mut ws = AcWorkspace::new();
    let ac_corr = corner_transfers(&solvers, &outs, &freqs, &mut ws);
    for (b, (cc, ss)) in ac_corr
        .iter()
        .zip(&scalar_transfers(&solvers, &outs, &freqs))
        .enumerate()
    {
        let (cc, ss) = match (cc, ss) {
            (Ok(cc), Ok(ss)) => (cc, ss),
            _ => return Err(format!("AC sweep failed at corner {b}: {cc:?} vs {ss:?}")),
        };
        if bitwise_corners && cc != ss {
            return Err(format!(
                "corrected AC sweep diverged bitwise at stock dims, corner {b}"
            ));
        }
        for (i, (hc, hs)) in cc.iter().zip(ss).enumerate() {
            if (*hc - *hs).norm() > 1e-8 * hs.norm() {
                return Err(format!(
                    "corrected AC point {i} diverged at corner {b}: {hc} vs {hs}"
                ));
            }
        }
    }
    let corr = noise_analysis_corners(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    for (b, (cc, ss)) in corr.iter().zip(&scalar).enumerate() {
        match (cc, ss) {
            (Ok(cc), Ok(ss)) => {
                if bitwise_corners {
                    if cc != ss {
                        return Err(format!(
                            "corrected path diverged bitwise at stock dims, corner {b}"
                        ));
                    }
                    continue;
                }
                if !rel_close(cc.out_vrms, ss.out_vrms, 1e-9)
                    || !rel_close(cc.input_referred_rms, ss.input_referred_rms, 1e-9)
                {
                    return Err(format!(
                        "corrected integrals diverged at corner {b}: {} vs {}",
                        cc.out_vrms, ss.out_vrms
                    ));
                }
                for (i, ((pc, ps), (gc, gs))) in cc
                    .out_psd
                    .iter()
                    .zip(&ss.out_psd)
                    .zip(cc.gain.iter().zip(&ss.gain))
                    .enumerate()
                {
                    if !rel_close(*pc, *ps, 1e-8) || !rel_close(*gc, *gs, 1e-8) {
                        return Err(format!(
                            "corrected point {i} diverged at corner {b}: psd {pc} vs {ps}, gain {gc} vs {gs}"
                        ));
                    }
                }
            }
            (Err(_), Err(_)) => {}
            _ => {
                return Err(format!(
                    "corrected outcome diverged at corner {b}: {cc:?} vs {ss:?}"
                ))
            }
        }
    }
    Ok(())
}

/// One noise source of the oracle: injection terminals and
/// `(white PSD, flicker prefactor)`, so the PSD at `f` is
/// `white + flicker / max(f, 1 mHz)`.
struct OracleSource {
    p: Node,
    n: Node,
    white: f64,
    flicker: f64,
}

/// Every thermal resistor and MOSFET of `ckt` at `temp_k`, read off the
/// netlist and the operating point's device entries.
fn oracle_sources(ckt: &Circuit, op: &OpPoint, temp_k: f64) -> Vec<OracleSource> {
    let mut out = Vec::new();
    for e in ckt.elements() {
        if let Element::Resistor {
            p,
            n,
            r,
            noisy: true,
        } = e
        {
            out.push(OracleSource {
                p: *p,
                n: *n,
                white: 4.0 * BOLTZMANN * temp_k / r,
                flicker: 0.0,
            });
        }
    }
    for mi in op.mosfets() {
        let Element::Mos(m) = &ckt.elements()[mi.elem_index] else {
            panic!("MOS entry {} is not a MOSFET", mi.elem_index);
        };
        out.push(OracleSource {
            p: mi.a_d,
            n: mi.a_s,
            white: m.model.thermal_noise_psd(mi.gm, temp_k),
            flicker: m.model.kf * mi.gm * mi.gm / (m.model.cox * m.w * m.l * m.mult),
        });
    }
    out
}

/// The oracle's `(transfer, psd)` at one point: one factorization of the
/// corner's system, one solve for the signal source and one per
/// injection.
fn oracle_point(
    solver: &AcSolver<'_>,
    sources: &[OracleSource],
    out: Node,
    f: f64,
) -> (Complex, f64) {
    let lu = solver.factor_at(f).expect("oracle factor");
    let o = solver.mna_index(out).expect("output is a node");
    let h = lu.solve(solver.source_rhs())[o];
    let mut psd = 0.0;
    for s in sources {
        let mut u = vec![Complex::ZERO; solver.dim()];
        if let Some(ip) = solver.mna_index(s.p) {
            u[ip] -= Complex::ONE;
        }
        if let Some(in_) = solver.mna_index(s.n) {
            u[in_] += Complex::ONE;
        }
        psd += lu.solve(&u)[o].norm_sqr() * (s.white + s.flicker / f.max(1e-3));
    }
    (h, psd)
}

/// Checks every corner's per-point AC transfer from the corner sweep, and
/// gain and PSD from the corner analysis, against the oracle, to `tol`
/// relative.
fn check_against_oracle(widths: &[f64], depth: usize, tol: f64) -> Result<(), String> {
    let (variants, ops, temps) = corner_set(widths, depth);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    if solvers[0].dim() <= 16 {
        return Err(format!(
            "dim {} is not past the stock dims",
            solvers[0].dim()
        ));
    }
    let op_refs: Vec<&OpPoint> = ops.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();
    let freqs = log_freqs(1e4, 1e10, 5);
    let mut ws = AcWorkspace::new();
    let corr = noise_analysis_corners(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    let ac_corr = corner_transfers(&solvers, &outs, &freqs, &mut ws);
    for (b, (r, ac)) in corr.iter().zip(&ac_corr).enumerate() {
        let r = r
            .as_ref()
            .map_err(|e| format!("corner {b} failed: {e:?}"))?;
        let ac = ac
            .as_ref()
            .map_err(|e| format!("corner {b} AC sweep failed: {e:?}"))?;
        let sources = oracle_sources(solvers[b].circuit(), &ops[b], temps[b]);
        for (k, &f) in freqs.iter().enumerate() {
            let (h, p) = oracle_point(&solvers[b], &sources, outs[b], f);
            let g = h.norm();
            let eh = (ac[k] - h).norm() / g;
            let (eg, ep) = ((r.gain[k] - g).abs() / g, (r.out_psd[k] - p).abs() / p);
            if !(eh <= tol && eg <= tol && ep <= tol) {
                return Err(format!(
                    "corner {b} at {f} Hz: transfer {} vs {h} ({eh:e}), gain {} vs {g} ({eg:e}), \
                     psd {} vs {p} ({ep:e})",
                    ac[k], r.gain[k], r.out_psd[k]
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    /// Dense mesh (dim > 16): every corner's per-point AC transfer, gain
    /// and PSD match the per-point LU oracle.
    #[test]
    fn noise_corners_match_per_point_lu_oracle(
        base_w in 0.8e-6..4.0e-6f64,
        deltas in prop::collection::vec(-0.3..0.3f64, 5),
        depth in 18usize..30,
    ) {
        let widths: Vec<f64> = std::iter::once(base_w)
            .chain(deltas.iter().map(|d| base_w * (1.0 + d)))
            .collect();
        let r = check_against_oracle(&widths, depth, 1e-9);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Dense mesh (dim > 16): the corrected AC sweep and noise analysis
    /// agree with the scalar paths to roundoff.
    #[test]
    fn noise_corrected_close_dense(
        base_w in 0.8e-6..4.0e-6f64,
        deltas in prop::collection::vec(-0.3..0.3f64, 5),
        depth in 18usize..30,
    ) {
        let widths: Vec<f64> = std::iter::once(base_w)
            .chain(deltas.iter().map(|d| base_w * (1.0 + d)))
            .collect();
        let r = check_equivalence(&widths, depth, false);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Stock dims (dim <= 16): the corner sweep and analysis reduce to the
    /// scalar arithmetic, so they are bitwise.
    #[test]
    fn noise_batch_bitwise_at_stock_dims(
        base_w in 0.8e-6..4.0e-6f64,
        deltas in prop::collection::vec(-0.3..0.3f64, 5),
        depth in 0usize..8,
    ) {
        let widths: Vec<f64> = std::iter::once(base_w)
            .chain(deltas.iter().map(|d| base_w * (1.0 + d)))
            .collect();
        let r = check_equivalence(&widths, depth, true);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

#[test]
fn single_corner_and_empty_batches() {
    let (variants, ops, temps) = corner_set(&[2e-6], 20);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let op_refs: Vec<&OpPoint> = ops.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();
    let freqs = log_freqs(1e4, 1e10, 4);
    let mut ws = AcWorkspace::new();
    // Single corner: the corner entry point runs the scalar path, bitwise.
    let scalar = noise_analysis(&variants[0].0, &ops[0], outs[0], &freqs, temps[0]).unwrap();
    let corr = noise_analysis_corners(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    assert_eq!(corr.len(), 1);
    assert_eq!(corr[0].as_ref().unwrap(), &scalar);
    // Empty batch: empty result, no panic.
    assert!(noise_analysis_corners(&[], &[], &[], &freqs, &[], &mut ws).is_empty());
}

#[test]
fn degenerate_grid_reports_invalid_options_per_corner() {
    let (variants, ops, temps) = corner_set(&[2e-6, 2.4e-6], 20);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let op_refs: Vec<&OpPoint> = ops.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();
    let mut ws = AcWorkspace::new();
    for bad in [vec![], vec![1e6, 1e3], vec![-1.0, 1e3]] {
        let corr = noise_analysis_corners(&solvers, &op_refs, &outs, &bad, &temps, &mut ws);
        assert_eq!(corr.len(), 2);
        for r in &corr {
            assert!(matches!(r, Err(SimError::InvalidOptions { .. })), "{r:?}");
        }
    }
}

/// Workspace reuse across back-to-back analyses (the session pattern)
/// must not perturb results.
#[test]
fn workspace_reuse_is_stable() {
    let (variants, ops, temps) = corner_set(&[2e-6, 1.6e-6, 2.8e-6], 22);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let op_refs: Vec<&OpPoint> = ops.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();
    let freqs = log_freqs(1e4, 1e10, 4);
    let mut ws = AcWorkspace::new();
    let a = noise_analysis_corners(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    let sweep = autockt_sim::ac::ac_sweep_corners(&solvers, &freqs, &outs, None, &mut ws);
    assert!(sweep.iter().all(Result::is_ok));
    let b = noise_analysis_corners(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    assert_eq!(
        a.iter().map(|r| r.as_ref().unwrap()).collect::<Vec<_>>(),
        b.iter().map(|r| r.as_ref().unwrap()).collect::<Vec<_>>()
    );
}

/// A dense corner set whose corners read different output nodes: the
/// corner analysis and sweep run the scalar path per corner, bitwise.
#[test]
fn differing_outputs_match_scalar_path_bitwise() {
    let (variants, ops, temps) = corner_set(&[2e-6, 1.6e-6, 2.8e-6], 20);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let op_refs: Vec<&OpPoint> = ops.iter().collect();
    let mut outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();
    // Corner 1 reads the amplifier's drain instead of the mesh's end.
    outs[1] = variants[1]
        .0
        .elements()
        .iter()
        .find_map(|e| match e {
            Element::Mos(m) => Some(m.d),
            _ => None,
        })
        .expect("the amplifier has a MOSFET");
    let freqs = log_freqs(1e4, 1e10, 4);
    let mut ws = AcWorkspace::new();
    let corr = noise_analysis_corners(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    let scalar = scalar_noises(&solvers, &op_refs, &outs, &freqs, &temps);
    for (b, r) in corr.iter().enumerate() {
        assert_eq!(r, &scalar[b], "corner {b}");
        assert!(r.is_ok(), "corner {b}: {r:?}");
    }
    let ac = corner_transfers(&solvers, &outs, &freqs, &mut ws);
    assert_eq!(ac, scalar_transfers(&solvers, &outs, &freqs));
    assert!(ac.iter().all(Result::is_ok));
}

/// A ground output has no response: every corner reports the scalar
/// path's zero-gain error, and the corner sweep the scalar path's zero
/// transfer.
#[test]
fn ground_output_reports_scalar_error() {
    let (variants, ops, temps) = corner_set(&[2e-6, 1.6e-6, 2.8e-6], 20);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let op_refs: Vec<&OpPoint> = ops.iter().collect();
    let outs = vec![GND; variants.len()];
    let freqs = log_freqs(1e4, 1e10, 4);
    let mut ws = AcWorkspace::new();
    let corr = noise_analysis_corners(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    for (b, r) in corr.iter().enumerate() {
        let scalar = noise_analysis(&variants[b].0, &ops[b], GND, &freqs, temps[b]);
        assert!(
            matches!(scalar, Err(SimError::MeasureFailed { .. })),
            "{scalar:?}"
        );
        assert_eq!(r, &scalar, "corner {b}");
    }
    let ac = corner_transfers(&solvers, &outs, &freqs, &mut ws);
    assert_eq!(ac, scalar_transfers(&solvers, &outs, &freqs));
    assert!(ac.iter().all(|h| h
        .as_ref()
        .is_ok_and(|h| h.iter().all(|v| *v == Complex::ZERO))));
}
