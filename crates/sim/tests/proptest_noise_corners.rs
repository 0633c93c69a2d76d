//! Property: the corner-batched noise analysis is equivalent to the
//! scalar per-corner reference.
//!
//! [`noise_analysis_corners`] recovers each sibling through the
//! base-plus-Woodbury correction, which is algebraically exact, so it
//! must agree with [`noise_analysis_ws`] to roundoff (far inside the warm
//! path's solver-tolerance contract); at stock dims (`n <= 16`) it falls
//! back to the scalar path and the comparison tightens to bitwise.

use autockt_sim::ac::{log_freqs, AcBatchWorkspace, AcSolver, AcWorkspace};
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint};
use autockt_sim::device::{MosPolarity, Technology};
use autockt_sim::netlist::{Circuit, Mosfet, Node, GND};
use autockt_sim::noise::{noise_analysis_corners, noise_analysis_ws};
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

    let mut sws = AcWorkspace::new();
    let scalar: Vec<_> = variants
        .iter()
        .zip(ops.iter().zip(&temps))
        .map(|((ckt, out), (op, &t))| noise_analysis_ws(ckt, op, *out, &freqs, t, &mut sws))
        .collect();

    let mut ws = AcBatchWorkspace::new();
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

proptest! {
    /// Dense mesh (dim > 16): corrected to roundoff.
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

    /// Stock dims (dim <= 16): the corner analysis reduces to the scalar
    /// arithmetic, so it is bitwise.
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
    let mut ws = AcBatchWorkspace::new();
    // Single corner: the corner entry point runs the scalar path, bitwise.
    let scalar = noise_analysis_ws(
        &variants[0].0,
        &ops[0],
        outs[0],
        &freqs,
        temps[0],
        &mut AcWorkspace::new(),
    )
    .unwrap();
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
    let mut ws = AcBatchWorkspace::new();
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
    let mut ws = AcBatchWorkspace::new();
    let a = noise_analysis_corners(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    let sweep = autockt_sim::ac::ac_sweep_corners(&solvers, &freqs, &outs, &mut ws);
    assert!(sweep.iter().all(Result::is_ok));
    let b = noise_analysis_corners(&solvers, &op_refs, &outs, &freqs, &temps, &mut ws);
    assert_eq!(
        a.iter().map(|r| r.as_ref().unwrap()).collect::<Vec<_>>(),
        b.iter().map(|r| r.as_ref().unwrap()).collect::<Vec<_>>()
    );
}
