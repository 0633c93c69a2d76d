//! Property: the corner settling integration is the scalar per-corner
//! reference.
//!
//! [`step_response_corners`] runs the scalar [`AcSolver::step_response`]
//! per corner (whose propagator already makes each step one
//! matrix-vector product), so every lane is **bitwise** the scalar record
//! — at stock dims, at dense-mesh dims and above 64, on corner sets
//! whose dims differ, and on single-corner and empty sets.

use autockt_sim::ac::AcSolver;
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint};
use autockt_sim::device::{MosPolarity, Technology};
use autockt_sim::netlist::{Circuit, Mosfet, Node, GND};
use autockt_sim::tran::step_response_corners;
use proptest::prelude::*;

/// Shared settling window and step count for every equivalence check:
/// a few output time constants of the fixture (R ~ 7 kΩ into 0.1 pF),
/// enough steps to exercise the multi-lane back-substitution without
/// slowing the suite down.
const T_STOP: f64 = 4.0e-8;
const STEPS: usize = 96;

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

/// Builds the corner set and solves every operating point cold.
fn corner_set(widths: &[f64], depth: usize) -> (Vec<(Circuit, Node)>, Vec<OpPoint>) {
    let variants: Vec<(Circuit, Node)> = widths.iter().map(|&w| amp_with_mesh(w, depth)).collect();
    let ops: Vec<OpPoint> = variants
        .iter()
        .map(|(ckt, _)| dc_operating_point(ckt, &DcOptions::default()).expect("amp solves"))
        .collect();
    (variants, ops)
}

/// Runs the scalar reference per corner, then checks that the corner
/// kernel matches it bitwise.
fn check_corrected(widths: &[f64], depth: usize) -> Result<(), String> {
    let (variants, ops) = corner_set(widths, depth);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let refs: Vec<&AcSolver<'_>> = solvers.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();

    let scalar: Vec<_> = refs
        .iter()
        .zip(&outs)
        .map(|(s, &o)| s.step_response(o, T_STOP, STEPS))
        .collect();
    let corr = step_response_corners(&refs, &outs, T_STOP, STEPS);
    if corr.len() != scalar.len() {
        return Err(format!(
            "corrected returned {} records for {} corners",
            corr.len(),
            scalar.len()
        ));
    }
    for (b, (cc, ss)) in corr.iter().zip(&scalar).enumerate() {
        match (cc, ss) {
            (Ok((ct, cy)), Ok((st, sy))) => {
                // The time axis is h = t_stop/steps scaled by the step
                // index on both paths — always bitwise.
                if ct != st {
                    return Err(format!("time axis diverged at corner {b}"));
                }
                if cy != sy {
                    return Err(format!("corner {b} diverged bitwise"));
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
    /// Dense-mesh dims (dim > 16): every corner runs the scalar
    /// propagator, so every lane is bitwise — duplicates and spread-out
    /// siblings alike. A duplicate corner rides along to cover the
    /// equal-stamps lane too.
    #[test]
    fn settle_propagator_dense_is_close(
        base_w in 0.8e-6..4.0e-6f64,
        deltas in prop::collection::vec(-0.3..0.3f64, 4),
        depth in 18usize..30,
    ) {
        let widths: Vec<f64> = std::iter::once(base_w)
            .chain(std::iter::once(base_w)) // duplicate corner: equal stamps
            .chain(deltas.iter().map(|d| base_w * (1.0 + d)))
            .collect();
        let r = check_corrected(&widths, depth);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Dims above 64 (depth 60+), the range a sparse base factorization
    /// once served: the corner kernel still runs the scalar propagator
    /// per corner, so the base corner and every sibling are bitwise.
    #[test]
    fn settle_corrected_close_sparse_base(
        base_w in 0.8e-6..4.0e-6f64,
        deltas in prop::collection::vec(-0.3..0.3f64, 3),
        depth in 60usize..72,
    ) {
        let widths: Vec<f64> = std::iter::once(base_w)
            .chain(deltas.iter().map(|d| base_w * (1.0 + d)))
            .collect();
        let r = check_corrected(&widths, depth);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Stock dims (dim <= 16): the scalar path per corner, so every lane
    /// is bitwise.
    #[test]
    fn settle_corrected_bitwise_at_stock_dims(
        base_w in 0.8e-6..4.0e-6f64,
        deltas in prop::collection::vec(-0.3..0.3f64, 5),
        depth in 0usize..8,
    ) {
        let widths: Vec<f64> = std::iter::once(base_w)
            .chain(deltas.iter().map(|d| base_w * (1.0 + d)))
            .collect();
        let r = check_corrected(&widths, depth);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// Corners whose MNA dims differ (structural mismatch) run the scalar
/// path per corner — bitwise, no cross-corner sharing.
#[test]
fn dim_mismatch_falls_back_to_scalar_bitwise() {
    let depths = [20usize, 24, 22];
    let variants: Vec<(Circuit, Node)> = depths.iter().map(|&d| amp_with_mesh(2.0e-6, d)).collect();
    let ops: Vec<OpPoint> = variants
        .iter()
        .map(|(ckt, _)| dc_operating_point(ckt, &DcOptions::default()).expect("amp solves"))
        .collect();
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let refs: Vec<&AcSolver<'_>> = solvers.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();
    let corr = step_response_corners(&refs, &outs, T_STOP, STEPS);
    assert_eq!(corr.len(), refs.len());
    for (b, (cc, (s, &o))) in corr.iter().zip(refs.iter().zip(&outs)).enumerate() {
        let sc = s.step_response(o, T_STOP, STEPS);
        assert_eq!(cc, &sc, "fallback corner {b} diverged from scalar");
    }
}

/// Single-corner and empty corner sets run (or skip) the scalar path.
#[test]
fn single_corner_and_empty_batches() {
    let (variants, ops) = corner_set(&[2.0e-6], 20);
    let solvers: Vec<AcSolver<'_>> = variants
        .iter()
        .zip(&ops)
        .map(|((ckt, _), op)| AcSolver::new(ckt, op))
        .collect();
    let refs: Vec<&AcSolver<'_>> = solvers.iter().collect();
    let outs: Vec<Node> = variants.iter().map(|(_, o)| *o).collect();
    let scalar = refs[0].step_response(outs[0], T_STOP, STEPS);
    let corr = step_response_corners(&refs, &outs, T_STOP, STEPS);
    assert_eq!(corr.len(), 1);
    assert_eq!(&corr[0], &scalar);
    assert!(step_response_corners(&[], &[], T_STOP, STEPS).is_empty());
}
