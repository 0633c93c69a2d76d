//! Physics-level integration tests of the simulator: canonical circuits
//! with hand-computable answers, exercised through the public API exactly
//! the way the circuit generators use it.

use autockt_sim::device::BOLTZMANN;
use autockt_sim::prelude::*;

#[test]
fn wheatstone_bridge_balances() {
    // A balanced bridge has zero differential voltage.
    let mut ckt = Circuit::new();
    let top = ckt.node("top");
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.vsource(top, GND, 1.0, 0.0);
    ckt.resistor(top, a, 1.0e3);
    ckt.resistor(a, GND, 2.0e3);
    ckt.resistor(top, b, 5.0e3);
    ckt.resistor(b, GND, 10.0e3);
    let op = dc_operating_point(&ckt, &DcOptions::default()).expect("solves");
    // The gmin regularization (1e-12 S per node) perturbs the two arms by
    // different Thevenin resistances, so exact equality is relaxed to the
    // microvolt level.
    assert!((op.voltage(a) - op.voltage(b)).abs() < 1e-6);
}

#[test]
fn miller_effect_multiplies_feedback_capacitance() {
    // An inverting stage with C_f from input to output shows an input pole
    // at roughly 1/(2 pi R_s C_f (1+|A|)) — far below the pole R_s C_f
    // alone would give.
    let tech = Technology::ptm45();
    let build = |cf: f64| {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("vin");
        let g = ckt.node("g");
        let o = ckt.node("o");
        ckt.vsource(vdd, GND, 1.2, 0.0);
        ckt.vsource(vin, GND, 0.55, 1.0);
        ckt.resistor_noiseless(vin, g, 100.0e3); // source resistance
        ckt.resistor_noiseless(vdd, o, 20.0e3);
        ckt.capacitor(g, o, cf);
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d: o,
            g,
            s: GND,
            w: 4e-6,
            l: 90e-9,
            mult: 1.0,
            model: tech.nmos,
        });
        (ckt, o)
    };
    let f3 = |cf: f64| {
        let (ckt, o) = build(cf);
        let op = dc_operating_point(&ckt, &DcOptions::default()).expect("op");
        ac_sweep(&ckt, &op, &log_freqs(1e2, 1e11, 20), o)
            .expect("sweep")
            .f_3db()
            .expect("pole in band")
    };
    let wide = f3(1e-15);
    let narrow = f3(100e-15);
    // 100x the feedback cap shrinks bandwidth by roughly (1+|A|)x more
    // than the cap ratio alone would if Miller multiplication is modeled.
    assert!(
        narrow < wide / 10.0,
        "miller: {narrow:.3e} should be << {wide:.3e}"
    );
}

#[test]
fn source_follower_gain_below_unity() {
    let tech = Technology::ptm45();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let s = ckt.node("s");
    ckt.vsource(vdd, GND, 1.2, 0.0);
    ckt.vsource(g, GND, 0.9, 1.0);
    ckt.mosfet(Mosfet {
        polarity: MosPolarity::Nmos,
        d: vdd,
        g,
        s,
        w: 10e-6,
        l: 90e-9,
        mult: 1.0,
        model: tech.nmos,
    });
    ckt.resistor_noiseless(s, GND, 10.0e3);
    let op = dc_operating_point(&ckt, &DcOptions::default()).expect("op");
    let resp = ac_sweep(&ckt, &op, &[1e3], s).expect("sweep");
    let a = resp.h[0].norm();
    assert!(a > 0.5 && a < 1.0, "follower gain {a} must be just below 1");
    // Non-inverting: phase near 0.
    assert!(resp.h[0].arg().to_degrees().abs() < 10.0);
}

#[test]
fn cascaded_rc_has_two_poles_in_phase() {
    let mut ckt = Circuit::new();
    let i = ckt.node("in");
    let m = ckt.node("mid");
    let o = ckt.node("out");
    ckt.vsource(i, GND, 0.0, 1.0);
    ckt.resistor(i, m, 1.0e3);
    ckt.capacitor(m, GND, 1e-9);
    // Buffer the second section with a VCCS to isolate the poles.
    let o2 = ckt.node("buf");
    ckt.vccs(GND, o2, m, GND, 1e-3);
    ckt.resistor(o2, GND, 1.0e3);
    ckt.resistor(o2, o, 1.0e3);
    ckt.capacitor(o, GND, 1e-9);
    let op = dc_operating_point(&ckt, &DcOptions::default()).expect("op");
    let resp = ac_sweep(&ckt, &op, &log_freqs(1e3, 1e9, 20), o).expect("sweep");
    let ph = resp.phase_unwrapped_deg();
    let total_shift = ph.last().expect("nonempty") - ph[0];
    // Two isolated RC poles asymptote to -180 degrees of phase.
    assert!(
        (total_shift + 180.0).abs() < 15.0,
        "two poles give ~-180 deg, got {total_shift}"
    );
}

#[test]
fn transient_matches_ac_time_constant() {
    // The settling time measured by the nonlinear transient engine must
    // agree with the linearized step response for a linear circuit.
    let mut ckt = Circuit::new();
    let i = ckt.node("in");
    let o = ckt.node("out");
    ckt.vsource_step(
        i,
        GND,
        Step {
            v0: 0.0,
            v1: 0.5,
            t_delay: 0.0,
        },
        1.0,
    );
    ckt.resistor(i, o, 2.0e3);
    ckt.capacitor(o, GND, 1e-9);
    let res = transient(&ckt, &TranOptions::new(20e-6, 4000)).expect("tran");
    let w = res.node_waveform(o);
    let ts_tran = settling_time(&res.t, &w, 0.02).expect("settles");

    let op = dc_operating_point(&ckt, &DcOptions::default()).expect("op");
    let solver = autockt_sim::ac::AcSolver::new(&ckt, &op);
    let (t, y) = solver.step_response(o, 20e-6, 4000).expect("lin step");
    let ts_lin = settling_time(&t, &y, 0.02).expect("settles");
    assert!(
        (ts_tran - ts_lin).abs() / ts_lin < 0.05,
        "tran {ts_tran:.3e} vs linear {ts_lin:.3e}"
    );
}

#[test]
fn noise_grows_with_temperature() {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let o = ckt.node("o");
    ckt.vsource(inp, GND, 0.0, 1.0);
    ckt.resistor(inp, o, 10.0e3);
    ckt.capacitor(o, GND, 1e-12);
    let f = log_freqs(1e3, 1e6, 10);
    let op = dc_operating_point(&ckt, &DcOptions::default()).expect("op");
    let cold = noise_analysis(&ckt, &op, o, &f, 250.0).expect("cold");
    let hot = noise_analysis(&ckt, &op, o, &f, 400.0).expect("hot");
    assert!(hot.out_vrms > cold.out_vrms);
}

#[test]
fn pvt_corners_order_device_current() {
    // FF > TT > SS drain current for the same bias — the ordering every
    // worst-case methodology relies on.
    let id_at = |tech: &Technology| {
        let m = tech.nmos;
        m.eval(0.7, 0.9, 2e-6, 90e-9, 1.0).id
    };
    let nom = Technology::ptm45();
    let ss = nom.at_corner(Pvt {
        process: ProcessCorner::Ss,
        vdd_scale: 1.0,
        temp_c: 27.0,
    });
    let ff = nom.at_corner(Pvt {
        process: ProcessCorner::Ff,
        vdd_scale: 1.0,
        temp_c: 27.0,
    });
    let (i_ss, i_tt, i_ff) = (id_at(&ss), id_at(&nom), id_at(&ff));
    assert!(i_ss < i_tt && i_tt < i_ff, "{i_ss} < {i_tt} < {i_ff}");

    // Heat also degrades drive at fixed corner (mobility dominates).
    let hot = nom.at_corner(Pvt {
        process: ProcessCorner::Tt,
        vdd_scale: 1.0,
        temp_c: 125.0,
    });
    // At high vgs the mobility term dominates the vth drop.
    let i_hot = hot.nmos.eval(0.9, 0.9, 2e-6, 90e-9, 1.0).id;
    let i_cold = nom.nmos.eval(0.9, 0.9, 2e-6, 90e-9, 1.0).id;
    assert!(i_hot < i_cold, "hot {i_hot} vs cold {i_cold}");
}

/// The conductance every node carries to ground in the small-signal
/// system (the same gmin regularization as the DC solve). The closed
/// forms below include it: it shifts the RC answers by `R·GMIN` = 1e-9
/// relative, far above the tolerances checked.
const GMIN: f64 = 1e-12;

/// An RC low-pass driven by a 1 V AC / step source.
fn rc(r: f64, c: f64) -> (Circuit, Node, OpPoint) {
    let mut ckt = Circuit::new();
    let i = ckt.node("in");
    let o = ckt.node("out");
    ckt.vsource(i, GND, 0.0, 1.0);
    ckt.resistor(i, o, r);
    ckt.capacitor(o, GND, c);
    let op = dc_operating_point(&ckt, &DcOptions::default()).expect("op");
    (ckt, o, op)
}

#[test]
fn rc_response_matches_closed_form_to_1e12() {
    // H(jw) = 1 / (1 + R·GMIN + jwRC). The complex relative error bounds
    // the magnitude's relative error and the phase error in radians.
    let (r, c) = (1.0e3, 1e-9);
    let (ckt, o, op) = rc(r, c);
    let freqs = log_freqs(1e3, 1e8, 10);
    let resp = ac_sweep(&ckt, &op, &freqs, o).expect("sweep");
    for (&f, &h) in freqs.iter().zip(&resp.h) {
        let w = 2.0 * std::f64::consts::PI * f;
        let exact = Complex::new(1.0 + r * GMIN, w * r * c).recip();
        let e = (h - exact).norm() / exact.norm();
        assert!(e <= 1e-12, "at {f:.3e} Hz: {h} vs {exact} ({e:.1e})");
        assert!((h.norm() - exact.norm()).abs() <= 1e-12 * exact.norm());
        assert!((h.arg() - exact.arg()).abs() <= 1e-12);
    }
}

#[test]
fn rc_step_response_within_trapezoidal_error_bound() {
    // y(t) = y_inf (1 - e^{-t/tau}) with y_inf = 1/(1 + R·GMIN) and
    // tau = RC/(1 + R·GMIN). The trapezoidal rule advances the homogeneous
    // part by R(z) = (1 + z/2)/(1 - z/2), z = -h/tau, instead of e^z, and
    // |R(z) - e^z| <= 1.01 |z|^3 / 12 for |z| <= 0.01. After k steps the
    // error is at most k times that: the O(h^2) global bound
    // (t/tau)(h/tau)^2/12.
    let (r, c) = (1.0e3, 1e-9);
    let (ckt, o, op) = rc(r, c);
    let (t_stop, steps) = (10e-6, 2000);
    let (t, y) = autockt_sim::ac::AcSolver::new(&ckt, &op)
        .step_response(o, t_stop, steps)
        .expect("step");
    let y_inf = 1.0 / (1.0 + r * GMIN);
    let tau = r * c / (1.0 + r * GMIN);
    let z = t_stop / steps as f64 / tau;
    assert!(z <= 0.01);
    let mut worst = 0.0f64;
    for (k, (&tk, &yk)) in t.iter().zip(&y).enumerate() {
        let exact = y_inf * (1.0 - (-tk / tau).exp());
        let bound = 1.01 * k as f64 * z.powi(3) / 12.0 * y_inf + 1e-14;
        assert!(
            (yk - exact).abs() <= bound,
            "step {k}: {yk} vs {exact}, bound {bound:e}"
        );
        worst = worst.max((yk - exact).abs());
    }
    // The bound is not vacuous: the integrator's error is of its order.
    let final_bound = 1.01 * steps as f64 * z.powi(3) / 12.0;
    assert!(worst > 0.01 * final_bound, "{worst:e} vs {final_bound:e}");
}

#[test]
fn rc_integrated_output_noise_is_kt_over_c() {
    // The resistor's 4kTR noise reaches the output as
    // S(f) = K / (1 + (f/fp)^2), K = 4kTR/(1 + R·GMIN)^2,
    // fp = (1 + R·GMIN)/(2 pi R C), whose integral over all f is
    // kT/C / (1 + R·GMIN). The analysis integrates S with the trapezoid
    // rule over a finite log grid, so the test checks the two gaps
    // separately:
    // - band truncation, exact: the integral over [f_lo, f_hi] is
    //   K fp (atan(f_hi/fp) - atan(f_lo/fp));
    // - the trapezoid error on each segment [a, b], at most
    //   (b - a)^3 / 12 max|S''|, with S'' = K/fp^2 g(f/fp),
    //   g(x) = (6x^2 - 2)/(1 + x^2)^3; |g| peaks at x = 0 (2) and x = 1
    //   (0.5) and is monotone between, so its segment maximum is at an
    //   endpoint or at x = 1.
    // At 40 points per decade over fp·1e-4 .. fp·1e4 the trapezoid bound
    // is 6.1e-4 of kT/C and the truncated tails 1.3e-4.
    let (r, c, temp) = (1.0e3, 1e-12, 300.0);
    let (ckt, o, op) = rc(r, c);
    let kt_c = BOLTZMANN * temp / c;
    let k = 4.0 * BOLTZMANN * temp * r / (1.0 + r * GMIN).powi(2);
    let fp = (1.0 + r * GMIN) / (2.0 * std::f64::consts::PI * r * c);
    let freqs = log_freqs(fp * 1e-4, fp * 1e4, 40);
    let nr = noise_analysis(&ckt, &op, o, &freqs, temp).expect("noise");
    let (f_lo, f_hi) = (freqs[0], freqs[freqs.len() - 1]);
    let band = k * fp * ((f_hi / fp).atan() - (f_lo / fp).atan());
    let g = |x: f64| (6.0 * x * x - 2.0) / (1.0 + x * x).powi(3);
    let trap_bound: f64 = freqs
        .windows(2)
        .map(|s| {
            let (xa, xb) = (s[0] / fp, s[1] / fp);
            let mut m = g(xa).abs().max(g(xb).abs());
            if xa <= 1.0 && 1.0 <= xb {
                m = m.max(0.5);
            }
            (s[1] - s[0]).powi(3) / 12.0 * k / (fp * fp) * m
        })
        .sum();
    let total = nr.out_vrms * nr.out_vrms;
    assert!(
        (total - band).abs() <= trap_bound + 1e-12 * band,
        "trapezoid: {total:e} vs band {band:e}, bound {trap_bound:e}"
    );
    let tails = kt_c / (1.0 + r * GMIN) - band;
    assert!(trap_bound < 7e-4 * kt_c && tails < 1.5e-4 * kt_c);
    assert!(
        (total - kt_c).abs() <= tails + trap_bound + 2.0 * r * GMIN * kt_c,
        "{total:e} vs kT/C {kt_c:e}"
    );
}

#[test]
fn diode_connected_nmos_biases_at_the_square_law_root() {
    // An ideal current source into a diode-connected NMOS: the device sits
    // in saturation (vds = vgs), so the node voltage V solves
    // I = ½β(V − Vth)²(1 + λV) + gmin·V in closed form, found here by
    // bisection on the monotone branch V > Vth.
    let tech = Technology::ptm45();
    let model = tech.nmos;
    let (w, l, mult) = (2.0e-6, 2.0 * tech.lmin, 1.0);
    let opts = DcOptions::default();
    let beta = model.kp * (w / l) * mult;
    for i_bias in [1e-6, 20e-6, 200e-6] {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        ckt.isource(GND, d, i_bias, 0.0);
        ckt.mosfet(Mosfet {
            polarity: MosPolarity::Nmos,
            d,
            g: d,
            s: GND,
            w,
            l,
            mult,
            model,
        });
        let op = dc_operating_point(&ckt, &opts).expect("diode bias solves");
        let residual = |v: f64| {
            let vov = v - model.vth0;
            0.5 * beta * vov * vov * (1.0 + model.lambda * v) + GMIN * v - i_bias
        };
        let (mut lo, mut hi) = (model.vth0, model.vth0 + 10.0);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if residual(mid) > 0.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let v = op.voltage(d);
        let root = 0.5 * (lo + hi);
        assert!(
            (v - root).abs() <= 1e-9 * root,
            "I = {i_bias:e}: solved {v} vs square-law root {root}"
        );
    }
}
