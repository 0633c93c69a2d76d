//! Properties of the settling integration.
//!
//! [`AcSolver::step_response`] evaluates the trapezoidal recurrence in
//! blocks of [`SETTLE_BLOCK`] steps (one anchor advance by `M^B` per
//! block, one length-`n` dot per output sample). A test-local copy of the
//! per-step propagator it replaced, one `n²` matrix-vector product per
//! step, is its oracle: the first block is bitwise, the rest within
//! roundoff of the whole record's scale.
//!
//! [`AcSolver::step_settling_time`] measures the settling time on the
//! same propagator without building the record. `step_response` plus
//! [`settling_time`] is its oracle, bitwise: the same `Ok` bits, or the
//! same error with the same `what`.

use autockt_sim::ac::{AcSolver, SETTLE_BLOCK};
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint};
use autockt_sim::device::{MosPolarity, Technology};
use autockt_sim::linalg::{LuFactors, Matrix};
use autockt_sim::measure::settling_time;
use autockt_sim::netlist::{Circuit, Mosfet, Node, GND};
use autockt_sim::SimError;
use proptest::prelude::*;

/// Settling window of every check: a few output time constants of the
/// fixture (R ~ 7 kΩ into 0.1 pF).
const T_STOP: f64 = 4.0e-8;

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

/// `G` and `C` of `solver`, rebuilt from its public system matrix: the
/// real part at `f = 0` is `G`, and at `f = 1/(2π)` the angular
/// frequency is exactly 1, so the imaginary part is `C` bit for bit.
fn stamps(solver: &AcSolver<'_>) -> (Matrix<f64>, Matrix<f64>) {
    let n = solver.dim();
    let f = 1.0 / (2.0 * std::f64::consts::PI);
    assert!(
        2.0 * std::f64::consts::PI * f == 1.0,
        "unit angular frequency"
    );
    let y0 = solver.system_matrix(0.0);
    let y1 = solver.system_matrix(f);
    let mut g = Matrix::<f64>::zeros(n, n);
    let mut c = Matrix::<f64>::zeros(n, n);
    for r in 0..n {
        for col in 0..n {
            g[(r, col)] = y0[(r, col)].re;
            c[(r, col)] = y1[(r, col)].im;
        }
    }
    (g, c)
}

/// The per-step propagator `AcSolver::step_response` ran before it was
/// blocked, verbatim but for the stamps' source: every step is the full
/// `n²` product `x₁ = M x₀ + k`.
fn per_step_oracle(
    solver: &AcSolver<'_>,
    out: Node,
    t_stop: f64,
    steps: usize,
) -> (Vec<f64>, Vec<f64>) {
    let (g, cm) = stamps(solver);
    let h = t_stop / steps as f64;
    let n = solver.dim();
    let b: Vec<f64> = solver.source_rhs().iter().map(|c| c.re).collect();
    let oi = solver.mna_index(out);
    let mut t_out = Vec::with_capacity(steps + 1);
    let mut y_out = Vec::with_capacity(steps + 1);
    t_out.push(0.0);
    y_out.push(0.0);
    let mut x = vec![0.0; n];
    let mut a = Matrix::<f64>::zeros(n, n);
    for r in 0..n {
        for c in 0..n {
            a[(r, c)] = g[(r, c)] + 2.0 * cm[(r, c)] / h;
        }
    }
    let lu = LuFactors::factor(a, 1e-300).expect("companion factors");
    let mut mcols = vec![0.0; n * n];
    let mut col = vec![0.0; n];
    let mut xcol = Vec::new();
    for j in 0..n {
        for (i, ci) in col.iter_mut().enumerate() {
            *ci = 2.0 * cm[(i, j)] / h - g[(i, j)];
        }
        lu.solve_into(&col, &mut xcol);
        mcols[j * n..(j + 1) * n].copy_from_slice(&xcol);
    }
    let b2: Vec<f64> = b.iter().map(|bv| 2.0 * bv).collect();
    let mut k = Vec::new();
    lu.solve_into(&b2, &mut k);
    let mut xn = vec![0.0; n];
    for s in 1..=steps {
        xn.copy_from_slice(&k);
        for (j, &xj) in x.iter().enumerate() {
            let mcol = &mcols[j * n..(j + 1) * n];
            for (xi, &mij) in xn.iter_mut().zip(mcol) {
                *xi += mij * xj;
            }
        }
        std::mem::swap(&mut x, &mut xn);
        t_out.push(s as f64 * h);
        y_out.push(oi.map_or(0.0, |i| x[i]));
    }
    (t_out, y_out)
}

/// Step counts around the block edges, the production record (2048) and
/// a record that ends mid-block (3000).
const ORACLE_STEPS: [usize; 7] = [
    1,
    SETTLE_BLOCK - 1,
    SETTLE_BLOCK,
    SETTLE_BLOCK + 1,
    2 * SETTLE_BLOCK + 3,
    2048,
    3000,
];

/// Largest deviation of the blocked record from the per-step oracle the
/// property accepts, relative to the record's largest `|y|`. The blocks
/// regroup the sums of the recurrence (`pᵢ·x + y⁰ᵢ` against `i` chained
/// products, and `M^B` by squaring), so the two records agree to a few
/// hundred ulps of the record's scale, not bitwise.
const BLOCKED_REL_TOL: f64 = 1e-12;

/// Compares the blocked record at `out` (the fixture's output, then
/// ground) with the per-step oracle: the time axis always bitwise, the
/// first block bitwise, longer records within [`BLOCKED_REL_TOL`].
fn check_blocked(widths: &[f64], depth: usize, steps: usize) -> Result<(), String> {
    let (variants, ops) = corner_set(widths, depth);
    for (b, ((ckt, out), op)) in variants.iter().zip(&ops).enumerate() {
        let solver = AcSolver::new(ckt, op);
        for node in [*out, GND] {
            let (ot, oy) = per_step_oracle(&solver, node, T_STOP, steps);
            let (bt, by) = solver
                .step_response(node, T_STOP, steps)
                .map_err(|e| format!("corner {b}: {e:?}"))?;
            if bt != ot {
                return Err(format!("corner {b}: time axis diverged"));
            }
            if by.len() != oy.len() {
                return Err(format!("corner {b}: {} samples vs {}", by.len(), oy.len()));
            }
            if steps <= SETTLE_BLOCK {
                if by != oy {
                    return Err(format!("corner {b}: first block not bitwise"));
                }
                continue;
            }
            if by.iter().any(|y| !y.is_finite()) {
                return Err(format!("corner {b} steps {steps}: non-finite sample"));
            }
            let scale = oy.iter().fold(0.0f64, |m, y| m.max(y.abs()));
            let dev = by
                .iter()
                .zip(&oy)
                .fold(0.0f64, |m, (p, q)| m.max((p - q).abs()));
            if dev > BLOCKED_REL_TOL * scale {
                return Err(format!(
                    "corner {b} node {node:?} steps {steps}: deviation {dev:e} against max|y| {scale:e}"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    /// The blocked settling kernel against the per-step oracle, on the
    /// amplifier-plus-mesh fixtures from dim 6 (no mesh) to dim 46
    /// (depth 40), at every step count of [`ORACLE_STEPS`].
    #[test]
    fn settle_blocked_matches_per_step_oracle(
        base_w in 0.8e-6..4.0e-6f64,
        deltas in prop::collection::vec(-0.3..0.3f64, 2),
        depth in 0usize..41,
        si in 0usize..ORACLE_STEPS.len(),
    ) {
        let widths: Vec<f64> = std::iter::once(base_w)
            .chain(deltas.iter().map(|d| base_w * (1.0 + d)))
            .collect();
        let r = check_blocked(&widths, depth, ORACLE_STEPS[si]);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// Step counts of the fused measurement's property: one step, the block
/// edges and the production record.
const FUSED_STEPS: [usize; 5] = [1, SETTLE_BLOCK - 1, SETTLE_BLOCK, SETTLE_BLOCK + 1, 2048];

/// The fused settling measurement and its oracle, `step_response` plus
/// `settling_time`, at `out` of `solver`.
fn fused_and_oracle(
    solver: &AcSolver<'_>,
    out: Node,
    t_stop: f64,
    steps: usize,
    band: f64,
) -> (Result<f64, SimError>, Result<f64, SimError>) {
    let fused = solver.step_settling_time(out, t_stop, steps, band);
    let oracle = solver
        .step_response(out, t_stop, steps)
        .and_then(|(t, y)| settling_time(&t, &y, band));
    (fused, oracle)
}

/// Compares the fused measurement with its oracle bitwise at every
/// corner's output and at ground.
fn check_fused(
    widths: &[f64],
    depth: usize,
    t_stop: f64,
    steps: usize,
    band: f64,
) -> Result<(), String> {
    let (variants, ops) = corner_set(widths, depth);
    for (b, ((ckt, out), op)) in variants.iter().zip(&ops).enumerate() {
        let solver = AcSolver::new(ckt, op);
        for node in [*out, GND] {
            let (fused, oracle) = fused_and_oracle(&solver, node, t_stop, steps, band);
            if fused.clone().map(f64::to_bits) != oracle.clone().map(f64::to_bits) {
                return Err(format!(
                    "corner {b} node {node:?} steps {steps} band {band}: {fused:?} vs {oracle:?}"
                ));
            }
        }
    }
    Ok(())
}

proptest! {
    /// The fused settling measurement against the record it replaces,
    /// on the amplifier-plus-mesh fixtures from dim 6 (no mesh) to dim 14
    /// (depth 8), at every step count of [`FUSED_STEPS`], over windows
    /// from far too short to settle to several output time constants,
    /// and bands from 0.01% to 50%.
    #[test]
    fn fused_settling_matches_record_measurement(
        base_w in 0.8e-6..4.0e-6f64,
        deltas in prop::collection::vec(-0.3..0.3f64, 2),
        depth in 0usize..9,
        si in 0usize..FUSED_STEPS.len(),
        window in 0.02..3.0f64,
        band_exp in -4.0..-0.3f64,
    ) {
        let widths: Vec<f64> = std::iter::once(base_w)
            .chain(deltas.iter().map(|d| base_w * (1.0 + d)))
            .collect();
        let band = 10f64.powf(band_exp);
        let r = check_fused(&widths, depth, window * T_STOP, FUSED_STEPS[si], band);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

/// Asserts the fused measurement fails like its oracle, with `what`, at
/// every step count of `steps`.
fn assert_fused_fails(solver: &AcSolver<'_>, out: Node, t_stop: f64, steps: &[usize], what: &str) {
    for &steps in steps {
        let (fused, oracle) = fused_and_oracle(solver, out, t_stop, steps, 0.02);
        assert_eq!(fused, oracle, "steps {steps}");
        assert!(
            matches!(fused, Err(SimError::MeasureFailed { what: w }) if w == what),
            "steps {steps}: {fused:?}"
        );
    }
}

/// A window of a thousandth of the fixture's settling window: the step
/// has barely begun, and each of up to `SETTLE_BLOCK + 1` steps moves it
/// by more than the 2% band, so the next-to-last sample is still out of
/// band. (A long record of a monotone rise always reads as settled in
/// the last 2% of its window.)
#[test]
fn fused_settling_rejects_a_window_too_short_to_settle() {
    let (variants, ops) = corner_set(&[2e-6], 4);
    let solver = AcSolver::new(&variants[0].0, &ops[0]);
    assert_fused_fails(
        &solver,
        variants[0].1,
        T_STOP / 1000.0,
        &FUSED_STEPS[..4],
        "waveform did not settle in record",
    );
}

/// An RC low-pass whose source has no AC drive: every sample is zero.
#[test]
fn fused_settling_rejects_a_zero_drive_circuit() {
    let mut ckt = Circuit::new();
    let i = ckt.node("in");
    let o = ckt.node("out");
    ckt.vsource(i, GND, 0.5, 0.0);
    ckt.resistor(i, o, 1.0e3);
    ckt.capacitor(o, GND, 1e-9);
    let op = dc_operating_point(&ckt, &DcOptions::default()).expect("rc solves");
    let solver = AcSolver::new(&ckt, &op);
    assert_fused_fails(&solver, o, 1e-5, &FUSED_STEPS, "no transition to settle");
}

/// Ground as the output: identically zero, past the warm-up too.
#[test]
fn fused_settling_rejects_a_ground_output() {
    let (variants, ops) = corner_set(&[2e-6], 8);
    let solver = AcSolver::new(&variants[0].0, &ops[0]);
    assert_fused_fails(
        &solver,
        GND,
        T_STOP,
        &FUSED_STEPS,
        "no transition to settle",
    );
}

/// A node with positive feedback (a transconductance injecting twice
/// the RC's conductance): one time constant per step triples the
/// response each step, so a 2048-step record overflows, and the fused
/// measurement reports the non-finite sample its oracle does.
#[test]
fn fused_settling_rejects_a_diverging_response() {
    let mut ckt = Circuit::new();
    let i = ckt.node("in");
    let o = ckt.node("out");
    ckt.vsource(i, GND, 0.0, 1.0);
    ckt.resistor(i, o, 1.0e3);
    ckt.capacitor(o, GND, 1e-9);
    ckt.vccs(GND, o, o, GND, 2.0e-3);
    let op = dc_operating_point(&ckt, &DcOptions::default()).expect("dc solves");
    let solver = AcSolver::new(&ckt, &op);
    assert_fused_fails(
        &solver,
        o,
        2048.0 * 1e-6,
        &[2048],
        "non-finite waveform sample",
    );
}
