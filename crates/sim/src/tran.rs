//! Transient analysis: fixed-step trapezoidal integration with a
//! backward-Euler start step, Newton iteration at every time point.
//!
//! Capacitors are replaced by their integration companion models; MOSFETs
//! are re-linearized each Newton iteration; step sources follow their
//! [`crate::netlist::Step`] waveforms.
//!
//! The settling measurements integrate the *linearized* circuit instead:
//! [`AcSolver::step_response`] folds the constant trapezoidal companion
//! into a propagator `x1 = M x0 + k` and evaluates it in blocks of
//! [`crate::ac::SETTLE_BLOCK`] steps: one `n²` anchor advance by `M^B`
//! per block and one length-`n` dot per output sample.
//! [`step_response_corners`] runs it per corner.

use crate::ac::AcSolver;
use crate::dc::{dc_operating_point, eval_mos_oriented, DcOptions, OpPoint, WarmState};
use crate::error::SimError;
use crate::linalg::{LuFactors, Matrix};
use crate::netlist::{Circuit, Element, Node};

/// Options for the transient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// Total simulated time (s).
    pub t_stop: f64,
    /// Fixed time step (s).
    pub dt: f64,
    /// Maximum Newton iterations per time point.
    pub max_iter: usize,
    /// Newton update tolerance (V, A).
    pub tol: f64,
    /// DC options used for the initial operating point.
    pub dc: DcOptions,
}

impl TranOptions {
    /// Creates options covering `t_stop` seconds in `steps` equal steps.
    ///
    /// Degenerate arguments (`steps == 0`, non-positive or non-finite
    /// `t_stop`) produce an options value that [`TranOptions::validate`]
    /// rejects — [`transient`] returns [`SimError::InvalidOptions`] rather
    /// than silently running an empty or NaN-stepped sweep.
    pub fn new(t_stop: f64, steps: usize) -> Self {
        TranOptions {
            t_stop,
            dt: t_stop / steps as f64,
            max_iter: 50,
            tol: 1e-9,
            dc: DcOptions::default(),
        }
    }

    /// Checks the options describe a non-degenerate sweep: a finite,
    /// positive `dt` no longer than a finite, positive `t_stop` (at least
    /// one time step).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidOptions`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.dt.is_finite() || self.dt <= 0.0 {
            return Err(SimError::InvalidOptions {
                what: "transient dt must be finite and positive (zero steps?)",
            });
        }
        if !self.t_stop.is_finite() || self.t_stop <= 0.0 {
            return Err(SimError::InvalidOptions {
                what: "transient t_stop must be finite and positive",
            });
        }
        if self.t_stop < self.dt {
            return Err(SimError::InvalidOptions {
                what: "transient t_stop shorter than dt (empty sweep)",
            });
        }
        Ok(())
    }
}

/// A transient waveform record.
#[derive(Debug, Clone, PartialEq)]
pub struct TranResult {
    /// Time points (s), starting at 0.
    pub t: Vec<f64>,
    /// Node voltages: `v[step][node_index]`.
    pub v: Vec<Vec<f64>>,
}

impl TranResult {
    /// Waveform of one node across all time points.
    pub fn node_waveform(&self, n: Node) -> Vec<f64> {
        self.v.iter().map(|row| row[n.index()]).collect()
    }
}

struct CapState {
    p: Node,
    n: Node,
    c: f64,
    v_prev: f64,
    i_prev: f64,
}

/// Runs a transient analysis from the DC operating point at `t = 0`.
///
/// # Errors
///
/// Returns [`SimError::TranNoConvergence`] if Newton fails at some time
/// point, or propagates DC/LU errors.
///
/// # Examples
///
/// An RC charging step reaches `1 - e^-1` of its final value at `t = RC`:
///
/// ```
/// use autockt_sim::netlist::{Circuit, Step, GND};
/// use autockt_sim::tran::{transient, TranOptions};
///
/// # fn main() -> Result<(), autockt_sim::SimError> {
/// let mut ckt = Circuit::new();
/// let i = ckt.node("in");
/// let o = ckt.node("out");
/// ckt.vsource_step(i, GND, Step { v0: 0.0, v1: 1.0, t_delay: 0.0 }, 0.0);
/// ckt.resistor(i, o, 1.0e3);
/// ckt.capacitor(o, GND, 1e-9);
/// let res = transient(&ckt, &TranOptions::new(5e-6, 2000))?;
/// let w = res.node_waveform(o);
/// let at_tau = res.t.iter().position(|&t| t >= 1e-6).unwrap();
/// assert!((w[at_tau] - (1.0 - (-1.0f64).exp())).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
pub fn transient(ckt: &Circuit, opts: &TranOptions) -> Result<TranResult, SimError> {
    opts.validate()?;
    let op = dc_operating_point(ckt, &opts.dc)?;
    transient_from_op(ckt, opts, &op)
}

/// [`transient`] with the initial DC operating point solved through a
/// session's [`WarmState`]: the previous solution stored in `slot` seeds
/// the Newton iteration (with the usual cold + homotopy fallback), so an
/// evaluation session that just solved the same design's operating point
/// for its AC analyses starts the transient in ~1 Newton iteration instead
/// of re-running the cold `initial_v` solve — closing the last cold start
/// in the session pipeline.
///
/// # Errors
///
/// Same contract as [`transient`].
pub fn transient_warm(
    ckt: &Circuit,
    opts: &TranOptions,
    slot: usize,
    state: &mut WarmState,
) -> Result<TranResult, SimError> {
    opts.validate()?;
    let op = state.solve(slot, ckt, &opts.dc)?;
    transient_from_op(ckt, opts, &op)
}

/// [`transient`] starting from an already-solved operating point `op`
/// (which must belong to `ckt` at its DC source values). Both public
/// entry points delegate here; callers that already hold an operating
/// point (e.g. after an AC linearization) can skip the DC solve entirely.
///
/// # Errors
///
/// Returns [`SimError::InvalidOptions`] for a degenerate time grid,
/// [`SimError::TranNoConvergence`] if Newton fails at some time point, or
/// propagates LU errors.
pub fn transient_from_op(
    ckt: &Circuit,
    opts: &TranOptions,
    op: &OpPoint,
) -> Result<TranResult, SimError> {
    opts.validate()?;
    let dim = ckt.mna_dim();
    let nnodes = ckt.num_nodes();
    let nv = nnodes - 1;

    // State vector starts at the operating point.
    let mut x = vec![0.0; dim];
    x[..nv].copy_from_slice(&op.voltages()[1..nnodes]);
    for k in 0..ckt.num_vsources() {
        x[nv + k] = op.vsource_current(k);
    }

    // Capacitor companion state.
    let mut caps: Vec<CapState> = ckt
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Capacitor { p, n, c } => Some(CapState {
                p: *p,
                n: *n,
                c: *c,
                v_prev: op.voltage(*p) - op.voltage(*n),
                i_prev: 0.0,
            }),
            _ => None,
        })
        .collect();

    let steps = (opts.t_stop / opts.dt).round() as usize;
    let mut t_points = Vec::with_capacity(steps + 1);
    let mut v_points = Vec::with_capacity(steps + 1);
    t_points.push(0.0);
    v_points.push(op.voltages().to_vec());

    let idx = |n: Node| ckt.mna_index(n);
    let mut j = Matrix::zeros(dim, dim);
    let mut f = vec![0.0; dim];
    // Persistent factorization buffers: every Newton iteration refactors
    // in place (`refactor` is bitwise-equal to a fresh `factor`) instead
    // of cloning the Jacobian and reallocating the factors per iteration.
    let mut lu = LuFactors::empty();
    let mut rhs = vec![0.0; dim];
    let mut dx: Vec<f64> = Vec::new();

    for step in 1..=steps {
        let t = step as f64 * opts.dt;
        // Trapezoidal companion (backward Euler on the first step, which
        // also damps the discontinuity of step sources at t = 0).
        let trap = step > 1;
        let mut converged = false;
        for _ in 0..opts.max_iter {
            j.fill_zero();
            f.iter_mut().for_each(|e| *e = 0.0);
            let volt = |n: Node| -> f64 {
                match ckt.mna_index(n) {
                    None => 0.0,
                    Some(i) => x[i],
                }
            };
            for i in 0..nv {
                j[(i, i)] += 1e-12;
                f[i] += 1e-12 * x[i];
            }
            // Capacitor companions.
            for cs in &caps {
                let (geq, ieq_hist) = if trap {
                    let g = 2.0 * cs.c / opts.dt;
                    (g, -(g * cs.v_prev + cs.i_prev))
                } else {
                    let g = cs.c / opts.dt;
                    (g, -(g * cs.v_prev))
                };
                let vc = volt(cs.p) - volt(cs.n);
                let i_now = geq * vc + ieq_hist;
                if let Some(ip) = idx(cs.p) {
                    f[ip] += i_now;
                    j[(ip, ip)] += geq;
                    if let Some(in_) = idx(cs.n) {
                        j[(ip, in_)] -= geq;
                    }
                }
                if let Some(in_) = idx(cs.n) {
                    f[in_] -= i_now;
                    j[(in_, in_)] += geq;
                    if let Some(ip) = idx(cs.p) {
                        j[(in_, ip)] -= geq;
                    }
                }
            }
            // Remaining elements.
            let mut vk = 0usize;
            for e in ckt.elements() {
                match e {
                    Element::Resistor { p, n, r, .. } => {
                        let g = 1.0 / r;
                        let i = g * (volt(*p) - volt(*n));
                        if let Some(ip) = idx(*p) {
                            f[ip] += i;
                            j[(ip, ip)] += g;
                            if let Some(in_) = idx(*n) {
                                j[(ip, in_)] -= g;
                            }
                        }
                        if let Some(in_) = idx(*n) {
                            f[in_] -= i;
                            j[(in_, in_)] += g;
                            if let Some(ip) = idx(*p) {
                                j[(in_, ip)] -= g;
                            }
                        }
                    }
                    Element::Capacitor { .. } => {}
                    Element::Vsource { p, n, dc, wave, .. } => {
                        let val = wave.map_or(*dc, |w| w.value(t));
                        let row = nv + vk;
                        let ibr = x[row];
                        if let Some(ip) = idx(*p) {
                            f[ip] += ibr;
                            j[(ip, row)] += 1.0;
                            j[(row, ip)] += 1.0;
                        }
                        if let Some(in_) = idx(*n) {
                            f[in_] -= ibr;
                            j[(in_, row)] -= 1.0;
                            j[(row, in_)] -= 1.0;
                        }
                        f[row] += volt(*p) - volt(*n) - val;
                        vk += 1;
                    }
                    Element::Isource { p, n, dc, wave, .. } => {
                        let val = wave.map_or(*dc, |w| w.value(t));
                        if let Some(ip) = idx(*p) {
                            f[ip] += val;
                        }
                        if let Some(in_) = idx(*n) {
                            f[in_] -= val;
                        }
                    }
                    Element::Vccs {
                        op: o,
                        on,
                        cp,
                        cn,
                        gm,
                    } => {
                        let i = gm * (volt(*cp) - volt(*cn));
                        if let Some(io) = idx(*o) {
                            f[io] += i;
                            if let Some(icp) = idx(*cp) {
                                j[(io, icp)] += gm;
                            }
                            if let Some(icn) = idx(*cn) {
                                j[(io, icn)] -= gm;
                            }
                        }
                        if let Some(io) = idx(*on) {
                            f[io] -= i;
                            if let Some(icp) = idx(*cp) {
                                j[(io, icp)] -= gm;
                            }
                            if let Some(icn) = idx(*cn) {
                                j[(io, icn)] += gm;
                            }
                        }
                    }
                    Element::Mos(m) => {
                        let (a_d, a_s, i_ad, gm, gds, _) = eval_mos_oriented(m, volt);
                        if let Some(id_) = idx(a_d) {
                            f[id_] += i_ad;
                            if let Some(ig) = idx(m.g) {
                                j[(id_, ig)] += gm;
                            }
                            j[(id_, id_)] += gds;
                            if let Some(is_) = idx(a_s) {
                                j[(id_, is_)] -= gm + gds;
                            }
                        }
                        if let Some(is_) = idx(a_s) {
                            f[is_] -= i_ad;
                            if let Some(ig) = idx(m.g) {
                                j[(is_, ig)] -= gm;
                            }
                            if let Some(id_) = idx(a_d) {
                                j[(is_, id_)] -= gds;
                            }
                            j[(is_, is_)] += gm + gds;
                        }
                        // Device capacitances as fixed small-signal values
                        // from the operating point would miss large-signal
                        // swing; instead stamp them as linear companions on
                        // the fly using the current region's gate caps.
                        let (cgs, cgd) = {
                            let e = m.model.eval(
                                match m.polarity {
                                    crate::device::MosPolarity::Nmos => volt(m.g) - volt(a_s),
                                    crate::device::MosPolarity::Pmos => volt(a_s) - volt(m.g),
                                },
                                1.0,
                                m.w,
                                m.l,
                                m.mult,
                            );
                            m.model.gate_caps(e.region, m.w, m.l, m.mult)
                        };
                        // These small device caps are integrated with
                        // backward Euler against the previous *node*
                        // voltages snapshot, folded in via geq only
                        // (history handled implicitly through v_points).
                        let prev = &v_points[v_points.len() - 1];
                        let geq_gs = cgs / opts.dt;
                        let geq_gd = cgd / opts.dt;
                        let pairs = [(m.g, a_s, geq_gs), (m.g, a_d, geq_gd)];
                        for (p, n, geq) in pairs {
                            let v_now = volt(p) - volt(n);
                            let v_prev = prev[p.index()] - prev[n.index()];
                            let i_now = geq * (v_now - v_prev);
                            if let Some(ip) = idx(p) {
                                f[ip] += i_now;
                                j[(ip, ip)] += geq;
                                if let Some(in_) = idx(n) {
                                    j[(ip, in_)] -= geq;
                                }
                            }
                            if let Some(in_) = idx(n) {
                                f[in_] -= i_now;
                                j[(in_, in_)] += geq;
                                if let Some(ip) = idx(p) {
                                    j[(in_, ip)] -= geq;
                                }
                            }
                        }
                    }
                }
            }
            for (r, v) in rhs.iter_mut().zip(&f) {
                *r = -v;
            }
            lu.refactor(&j, 1e-30)?;
            lu.solve_into(&rhs, &mut dx);
            let mut maxd = 0.0f64;
            for (i, d) in dx.iter().enumerate() {
                let s = if i < nv { d.clamp(-0.5, 0.5) } else { *d };
                x[i] += s;
                maxd = maxd.max(d.abs());
            }
            if maxd < opts.tol {
                converged = true;
                break;
            }
        }
        if !converged || !x.iter().all(|v| v.is_finite()) {
            return Err(SimError::TranNoConvergence { time: t });
        }
        // Commit the step: update capacitor history.
        let volt = |n: Node| -> f64 {
            match ckt.mna_index(n) {
                None => 0.0,
                Some(i) => x[i],
            }
        };
        for cs in &mut caps {
            let vc = volt(cs.p) - volt(cs.n);
            let (geq, ieq_hist) = if trap {
                let g = 2.0 * cs.c / opts.dt;
                (g, -(g * cs.v_prev + cs.i_prev))
            } else {
                let g = cs.c / opts.dt;
                (g, -(g * cs.v_prev))
            };
            cs.i_prev = geq * vc + ieq_hist;
            cs.v_prev = vc;
        }
        let mut row = vec![0.0; nnodes];
        row[1..].copy_from_slice(&x[..nnodes - 1]);
        t_points.push(t);
        v_points.push(row);
    }
    Ok(TranResult {
        t: t_points,
        v: v_points,
    })
}

/// One corner's settling record: the `(t, y)` sample vectors of a step
/// response, or the solver error that corner failed with.
pub type StepRecord = Result<(Vec<f64>, Vec<f64>), SimError>;

/// Small-signal step response of every corner of a PVT corner set over
/// one shared time window: [`AcSolver::step_response`] per corner, whose
/// blocked propagator makes every output sample one length-`n` dot plus,
/// per block of [`crate::ac::SETTLE_BLOCK`] samples, one `n²` anchor
/// advance.
///
/// Returns one `(t, y)` record per corner, ordered like `solvers`.
///
/// # Panics
///
/// Panics if `solvers` and `outs` have different lengths.
pub fn step_response_corners(
    solvers: &[&AcSolver<'_>],
    outs: &[Node],
    t_stop: f64,
    steps: usize,
) -> Vec<StepRecord> {
    assert_eq!(solvers.len(), outs.len(), "one output node per corner");
    solvers
        .iter()
        .zip(outs)
        .map(|(s, &o)| s.step_response(o, t_stop, steps))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{Step, GND};

    #[test]
    fn rc_step_response_tau() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        let o = ckt.node("out");
        ckt.vsource_step(
            i,
            GND,
            Step {
                v0: 0.0,
                v1: 1.0,
                t_delay: 0.0,
            },
            0.0,
        );
        ckt.resistor(i, o, 1.0e3);
        ckt.capacitor(o, GND, 1e-9);
        let res = transient(&ckt, &TranOptions::new(5e-6, 5000)).unwrap();
        let w = res.node_waveform(o);
        // At t = tau the response is 1 - 1/e.
        let k = res.t.iter().position(|&t| t >= 1e-6).unwrap();
        assert!((w[k] - 0.6321).abs() < 0.01, "got {}", w[k]);
        // Settled to within 1% at 5 tau (1 - e^-5 ~ 0.9933).
        assert!((w.last().unwrap() - 1.0).abs() < 0.01);
    }

    #[test]
    fn step_delay_respected() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        ckt.vsource_step(
            i,
            GND,
            Step {
                v0: 0.2,
                v1: 0.8,
                t_delay: 1e-6,
            },
            0.0,
        );
        ckt.resistor(i, GND, 1e3);
        let res = transient(&ckt, &TranOptions::new(2e-6, 200)).unwrap();
        let w = res.node_waveform(i);
        let before = res.t.iter().position(|&t| t >= 0.5e-6).unwrap();
        assert!((w[before] - 0.2).abs() < 1e-6);
        assert!((w.last().unwrap() - 0.8).abs() < 1e-6);
    }

    #[test]
    fn lc_free_energy_is_not_created() {
        // Two capacitors sharing charge through a resistor: final voltage
        // is the charge-weighted average; trapezoidal must not overshoot
        // persistently.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        // Pre-charge via a step source through a tiny resistor, then the
        // source stays constant; we just verify no numerical blow-up.
        ckt.vsource_step(
            a,
            GND,
            Step {
                v0: 1.0,
                v1: 1.0,
                t_delay: 0.0,
            },
            0.0,
        );
        ckt.resistor(a, b, 1e4);
        ckt.capacitor(b, GND, 1e-12);
        let res = transient(&ckt, &TranOptions::new(1e-6, 1000)).unwrap();
        let w = res.node_waveform(b);
        assert!(w.iter().all(|v| v.is_finite() && *v <= 1.0 + 1e-6));
        assert!((w.last().unwrap() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn zero_step_options_are_rejected_not_degenerate() {
        let mut ckt = Circuit::new();
        let i = ckt.node("in");
        ckt.vsource(i, GND, 1.0, 0.0);
        ckt.resistor(i, GND, 1e3);
        // steps = 0 => dt = inf; previously this silently produced a
        // zero-step sweep from `(t_stop / dt).round()` on a non-finite dt.
        let r = transient(&ckt, &TranOptions::new(1e-6, 0));
        assert!(matches!(r, Err(SimError::InvalidOptions { .. })), "{r:?}");
        // t_stop = 0 => dt = 0.
        let r = transient(&ckt, &TranOptions::new(0.0, 100));
        assert!(matches!(r, Err(SimError::InvalidOptions { .. })));
        // Hand-built options with t_stop < dt: empty sweep.
        let opts = TranOptions {
            dt: 1e-6,
            ..TranOptions::new(1e-7, 10)
        };
        assert!(matches!(
            transient(&ckt, &opts),
            Err(SimError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn warm_transient_matches_cold_and_skips_cold_dc() {
        // RC step: the warm path must produce the same waveform as the
        // cold path (same fixed point, same integration), while starting
        // its DC from the session's stored operating point.
        let build = || {
            let mut ckt = Circuit::new();
            let i = ckt.node("in");
            let o = ckt.node("out");
            ckt.vsource_step(
                i,
                GND,
                Step {
                    v0: 0.0,
                    v1: 1.0,
                    t_delay: 0.0,
                },
                0.0,
            );
            ckt.resistor(i, o, 1.0e3);
            ckt.capacitor(o, GND, 1e-9);
            ckt
        };
        let ckt = build();
        let opts = TranOptions::new(5e-6, 500);
        let cold = transient(&ckt, &opts).unwrap();
        let mut state = WarmState::new();
        // Prime the slot with the operating point, as a session would.
        state.solve(0, &ckt, &opts.dc).unwrap();
        let warm = transient_warm(&ckt, &opts, 0, &mut state).unwrap();
        assert_eq!(cold.t, warm.t);
        for (a, b) in cold.v.iter().flatten().zip(warm.v.iter().flatten()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        // The warm state now holds the transient's initial OP solution.
        assert!(state.is_warm());
    }

    #[test]
    fn mosfet_inverter_transient_switches() {
        use crate::device::{MosPolarity, Technology};
        use crate::netlist::Mosfet;
        let t = Technology::ptm45();
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let o = ckt.node("o");
        ckt.vsource(vdd, GND, 1.0, 0.0);
        ckt.vsource_step(
            g,
            GND,
            Step {
                v0: 0.0,
                v1: 1.0,
                t_delay: 0.2e-9,
            },
            0.0,
        );
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
            w: 2e-6,
            l: t.lmin,
            mult: 1.0,
            model: t.pmos,
        });
        ckt.capacitor(o, GND, 10e-15);
        let res = transient(&ckt, &TranOptions::new(2e-9, 2000)).unwrap();
        let w = res.node_waveform(o);
        assert!(w[0] > 0.9, "output starts high, got {}", w[0]);
        assert!(*w.last().unwrap() < 0.1, "output ends low");
    }
}
