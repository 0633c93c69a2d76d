//! Identities between analyses on the three topologies: the linear step
//! response settles to the DC small-signal gain, and the AC transfer far
//! below the cutoff approaches it as a dominant pole predicts.
//!
//! For each topology's centre design (`Schematic`, cold operating point),
//! the end of [`AcSolver::step_response`] is compared with the DC
//! transfer from the netlist's AC source to the output, computed two ways
//! that share no code with the settling kernel:
//!
//! - `G⁻¹b` from a dense LU solve of the small-signal system at `f = 0`.
//!   The trapezoidal recurrence's fixed point is exactly `G⁻¹b`.
//! - A centred finite difference of two DC operating points, with the
//!   AC-driven source's DC value moved by `±δ`.
//!
//! The AC transfer at [`AC_RATIO`] of the -3 dB cutoff is held to the
//! same two DC transfers, its real and imaginary parts each to the order
//! in the ratio a dominant pole gives them.
//!
//! The op-amps are driven by a voltage source. Its branch row has no
//! capacitance, so the trapezoidal rule carries the zero initial state's
//! mismatch with `v = 1` as an undamped `(−1)ⁿ` mode (the row reads
//! `v₁ = 2 − v₀`). That mode reaches the output through the high-frequency
//! feedthrough as an alternating offset of about 2e-5 of the gain at every
//! step size. The mean of the last two samples cancels it; the last sample
//! alone is held to the looser [`RING_REL_TOL`].
//!
//! The nonlinear transient shares its residual with the DC solve: a
//! transient of the op-amp's centre design, whose sources are all
//! constant, started at the DC operating point stays there to
//! [`REST_TOL`] at every sample.

use autockt_circuits::prelude::*;
use autockt_sim::ac::{ac_sweep, log_freqs, AcSolver};
use autockt_sim::complex::Complex;
use autockt_sim::dc::{dc_operating_point, DcOptions, OpPoint};
use autockt_sim::device::Technology;
use autockt_sim::linalg::LuFactors;
use autockt_sim::netlist::{Circuit, Element, Node};
use autockt_sim::tran::{transient, TranOptions};

/// Time constants of the slowest pole the settling window spans. The
/// un-decayed transient left at the end is then about `e^{-40}` ≈ 4e-18
/// of the step, far below every tolerance here.
const WINDOW_TAUS: f64 = 40.0;

/// Trapezoidal steps over the window (`h` ≈ τ/100).
const STEPS: usize = 4096;

/// Mean of the last two samples against `G⁻¹b`. The recurrence's fixed
/// point is `G⁻¹b` exactly, so what is left is roundoff: `M = I − hC⁻¹G`
/// to first order, and a pole with `hσ` ≈ 0.01 amplifies the roundoff of
/// `M` about a hundredfold. Measured at most 1.4e-13 (the op-amp).
const SETTLED_REL_TOL: f64 = 1e-10;

/// The last sample alone against `G⁻¹b`: the `(−1)ⁿ` mode of the
/// voltage-source drive (module doc), measured at 1.9e-5 (op-amp) and
/// 2.1e-5 (neg-gm OTA) of the gain and independent of the step size.
const RING_REL_TOL: f64 = 1e-4;

/// Output excursion of the finite difference. The centred difference's
/// truncation error falls as its square. On the op-amp it measured 5e-3
/// at 1 mV, 5e-5 at 100 µV and 5e-7 at 10 µV. Cancellation costs about
/// `1e-16 · |v_out| / Δv` ≈ 1e-11, and the Newton stop (updates below
/// 1e-9, converging quadratically) leaves far less.
const FD_DV: f64 = 1e-5;

/// Finite difference against `G⁻¹b`: the 5e-7 truncation error above,
/// with a twentyfold margin.
const FD_REL_TOL: f64 = 1e-5;

/// Where the AC transfer is read against the DC gain, as a fraction `r`
/// of the -3 dB cutoff: six decades below it. A dominant pole gives
/// `H / H₀ = 1 / (1 + jr) = 1 − r² − jr + O(r³)`: the imaginary part is
/// first order in `r`, the real part's gap second order.
const AC_RATIO: f64 = 1e-6;

/// `|Re H / G⁻¹b − 1|` at [`AC_RATIO`]: the `r²` = 1e-12 of the dominant
/// pole with a tenfold margin (roundoff alone measured 3.3e-14). Measured
/// 9.6e-13 (op-amp), 1.04e-12 (neg-gm OTA), 1.01e-12 (TIA).
const AC_RE_REL_TOL: f64 = 1e-11;

/// `|Im H / G⁻¹b + r| / r` at [`AC_RATIO`]: how far the poles and zeros
/// above the cutoff move the first-order term off a lone pole's `−r`.
/// Measured 0.44% (op-amp), 4.0% (neg-gm OTA), 2.0% (TIA).
const AC_IM_SPREAD: f64 = 0.1;

/// Time steps of the at-rest transient, over [`REST_TAUS`] time constants
/// of the cutoff pole.
const REST_STEPS: usize = 300;

/// Time constants of the cutoff pole the at-rest transient spans.
const REST_TAUS: f64 = 5.0;

/// Every node sample of the at-rest transient against the DC operating
/// point (V). Both Newton iterations stop on updates below 1e-9 and
/// converge quadratically, so a shared residual leaves far less; a
/// residual missing one element kind moves the nodes by volts.
const REST_TOL: f64 = 1e-8;

/// A topology's centre design: its netlist, output node and the DC
/// options its evaluations solve with.
struct Centre {
    name: &'static str,
    ckt: Circuit,
    out: Node,
    dc: DcOptions,
}

fn centre_idx(p: &dyn SizingProblem) -> Vec<usize> {
    p.cardinalities().iter().map(|k| k / 2).collect()
}

fn dc_opts(vdd: f64) -> DcOptions {
    DcOptions {
        initial_v: vdd / 2.0,
    }
}

fn centres() -> Vec<Centre> {
    let tech = Technology::ptm45();
    let opamp = OpAmp2::default();
    let (ckt, out) = opamp.build(&centre_idx(&opamp), &tech);
    let neggm = NegGmOta::default();
    let (nckt, nout) = neggm.build(&centre_idx(&neggm), &tech);
    let tia = Tia::default();
    let (tckt, tout) = tia.build(&centre_idx(&tia), &tech);
    vec![
        Centre {
            name: "opamp2",
            ckt,
            out,
            dc: dc_opts(OpAmp2::VDD),
        },
        Centre {
            name: "neggm",
            ckt: nckt,
            out: nout,
            dc: dc_opts(NegGmOta::VDD),
        },
        Centre {
            name: "tia",
            ckt: tckt,
            out: tout,
            dc: dc_opts(tech.vdd),
        },
    ]
}

/// `ckt` with the DC value of every AC-driven source moved by `delta`
/// times its AC magnitude — the DC counterpart of the small-signal drive.
fn shifted(ckt: &Circuit, delta: f64) -> Circuit {
    let mut c = Circuit::new();
    for _ in 1..ckt.num_nodes() {
        c.node("n");
    }
    for e in ckt.elements() {
        match e {
            Element::Resistor { p, n, r, noisy } => {
                if *noisy {
                    c.resistor(*p, *n, *r);
                } else {
                    c.resistor_noiseless(*p, *n, *r);
                }
            }
            Element::Capacitor { p, n, c: cap } => c.capacitor(*p, *n, *cap),
            Element::Vsource { p, n, dc, ac, .. } => c.vsource(*p, *n, dc + delta * ac, *ac),
            Element::Isource { p, n, dc, ac, .. } => c.isource(*p, *n, dc + delta * ac, *ac),
            Element::Vccs { op, on, cp, cn, gm } => c.vccs(*op, *on, *cp, *cn, *gm),
            Element::Mos(m) => c.mosfet(*m),
        }
    }
    c
}

/// The DC small-signal gain `(G⁻¹b)_out`, from a dense LU solve of the
/// system at `f = 0`.
fn lu_dc_gain(solver: &AcSolver<'_>, out: Node) -> f64 {
    let x = LuFactors::factor(solver.system_matrix(0.0), 1e-300)
        .expect("G factors")
        .solve(solver.source_rhs());
    solver.voltage(&x, out).re
}

/// The settled step response: the last sample and the mean of the last
/// two, over [`WINDOW_TAUS`] time constants of the slowest pole. The
/// slowest pole is taken as the -3 dB cutoff of the AC response; every
/// design here is dominant-pole.
fn settled(ckt: &Circuit, op: &OpPoint, out: Node) -> (f64, f64) {
    let tau = 1.0 / (2.0 * std::f64::consts::PI * cutoff(ckt, op, out));
    let (_, y) = AcSolver::new(ckt, op)
        .step_response(out, WINDOW_TAUS * tau, STEPS)
        .expect("integrates");
    (y[STEPS], 0.5 * (y[STEPS] + y[STEPS - 1]))
}

/// The -3 dB cutoff of the AC response, taken as the slowest pole; every
/// design here is dominant-pole.
fn cutoff(ckt: &Circuit, op: &OpPoint, out: Node) -> f64 {
    ac_sweep(ckt, op, &log_freqs(1e-2, 1e12, 10), out)
        .and_then(|r| r.f_3db())
        .expect("has a cutoff")
}

/// The AC transfer at `ratio` times the cutoff, from the production sweep
/// (the pencil reduction).
fn ac_below_cutoff(ckt: &Circuit, op: &OpPoint, out: Node, ratio: f64) -> Complex {
    let f = ratio * cutoff(ckt, op, out);
    ac_sweep(ckt, op, &[f], out).expect("sweeps").h[0]
}

/// The DC transfer by a centred finite difference of two operating points,
/// the drive moved by [`FD_DV`] of output.
fn fd_dc_gain(c: &Centre, g_lu: f64) -> f64 {
    let delta = FD_DV / g_lu.abs();
    let plus = dc_operating_point(&shifted(&c.ckt, delta), &c.dc).expect("+δ solves");
    let minus = dc_operating_point(&shifted(&c.ckt, -delta), &c.dc).expect("-δ solves");
    (plus.voltage(c.out) - minus.voltage(c.out)) / (2.0 * delta)
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs()
}

#[test]
fn step_response_final_value_is_the_dc_gain() {
    for c in centres() {
        let op = dc_operating_point(&c.ckt, &c.dc).expect("centre design solves");
        let solver = AcSolver::new(&c.ckt, &op);
        let g_lu = lu_dc_gain(&solver, c.out);
        let g_fd = fd_dc_gain(&c, g_lu);
        let (last, mean) = settled(&c.ckt, &op, c.out);
        let name = c.name;
        assert!(
            rel(mean, g_lu) <= SETTLED_REL_TOL,
            "{name}: settled {mean:e} against G⁻¹b {g_lu:e}"
        );
        assert!(
            rel(last, g_lu) <= RING_REL_TOL,
            "{name}: last sample {last:e} against G⁻¹b {g_lu:e}"
        );
        assert!(
            rel(g_fd, g_lu) <= FD_REL_TOL,
            "{name}: finite-difference gain {g_fd:e} against G⁻¹b {g_lu:e}"
        );
        assert!(
            rel(mean, g_fd) <= FD_REL_TOL,
            "{name}: settled {mean:e} against finite-difference gain {g_fd:e}"
        );
    }
}

#[test]
fn ac_transfer_far_below_the_cutoff_is_the_dc_gain() {
    for c in centres() {
        let op = dc_operating_point(&c.ckt, &c.dc).expect("centre design solves");
        let g_lu = lu_dc_gain(&AcSolver::new(&c.ckt, &op), c.out);
        let g_fd = fd_dc_gain(&c, g_lu);
        let h = ac_below_cutoff(&c.ckt, &op, c.out, AC_RATIO).scale(1.0 / g_lu);
        let name = c.name;
        assert!(
            (h.re - 1.0).abs() <= AC_RE_REL_TOL,
            "{name}: Re H / G⁻¹b = {:e} at {AC_RATIO:e} of the cutoff",
            h.re
        );
        assert!(
            (h.im + AC_RATIO).abs() <= AC_IM_SPREAD * AC_RATIO,
            "{name}: Im H / G⁻¹b = {:e} at {AC_RATIO:e} of the cutoff",
            h.im
        );
        assert!(
            rel(h.re * g_lu, g_fd) <= FD_REL_TOL,
            "{name}: Re H {:e} against finite-difference gain {g_fd:e}",
            h.re * g_lu
        );
    }
}

#[test]
fn transient_at_rest_stays_at_the_operating_point() {
    let c = centres()
        .into_iter()
        .find(|c| c.name == "opamp2")
        .expect("op-amp centre");
    // The premise: nonlinear, with capacitors, driven by constant sources.
    let elems = c.ckt.elements();
    assert!(elems.iter().any(|e| matches!(e, Element::Mos(_))));
    assert!(elems.iter().any(|e| matches!(e, Element::Capacitor { .. })));
    assert!(elems.iter().all(|e| !matches!(
        e,
        Element::Vsource { wave: Some(_), .. } | Element::Isource { wave: Some(_), .. }
    )));
    let op = dc_operating_point(&c.ckt, &c.dc).expect("centre design solves");
    let tau = 1.0 / (2.0 * std::f64::consts::PI * cutoff(&c.ckt, &op, c.out));
    let mut opts = TranOptions::new(REST_TAUS * tau, REST_STEPS);
    opts.dc = c.dc.clone();
    let res = transient(&c.ckt, &opts).expect("integrates");
    assert_eq!(res.v.len(), REST_STEPS + 1);
    for (k, row) in res.v.iter().enumerate() {
        for (node, (v, v_op)) in row.iter().zip(op.voltages()).enumerate() {
            assert!(
                (v - v_op).abs() <= REST_TOL,
                "step {k}, node {node}: {v:e} against the operating point {v_op:e}"
            );
        }
    }
}
