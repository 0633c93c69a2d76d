//! Transient analysis: fixed-step trapezoidal integration with a
//! backward-Euler start step, Newton iteration at every time point.
//!
//! Every time point is one Newton solve of the DC assembler
//! ([`crate::dc`]) with the sources at that time: step sources follow their [`crate::netlist::Step`]
//! waveforms, MOSFETs are re-linearized each Newton iteration, and the
//! capacitors and MOSFET gate capacitances add their integration
//! companions. A circuit at rest therefore stays at its operating point.
//!
//! The settling measurements integrate the *linearized* circuit instead.
//! [`crate::ac::AcSolver::step_settling_time`] folds the constant
//! trapezoidal companion into a propagator `x1 = M x0 + k` and evaluates
//! it in blocks of [`crate::ac::SETTLE_BLOCK`] steps (one `n²` anchor
//! advance by `M^B` per block, one length-`n` dot per output sample),
//! scanning each block for the settling band as it goes, so no `(t, y)`
//! record is built. [`crate::ac::AcSolver::step_response`] runs the same
//! propagator and returns the record, the oracle the fused measurement
//! is tested against.

use crate::dc::{
    dc_operating_point, eval_mos_oriented, newton_solve, Assembler, DcOptions, DcWorkspace, GMIN,
};
use crate::device::MosPolarity;
use crate::error::SimError;
use crate::linalg::Matrix;
use crate::netlist::{Circuit, Element, Node};

/// Options for the transient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// Total simulated time (s).
    pub t_stop: f64,
    /// Fixed time step (s).
    pub dt: f64,
    /// DC options of the initial operating point's solve.
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

impl CapState {
    /// The companion `(geq, ieq)` of the step from the committed state:
    /// the capacitor current is `geq * v + ieq`. Trapezoidal, or backward
    /// Euler on the first step (which also damps the discontinuity of
    /// step sources at `t = 0`).
    fn companion(&self, dt: f64, trap: bool) -> (f64, f64) {
        if trap {
            let g = 2.0 * self.c / dt;
            (g, -(g * self.v_prev + self.i_prev))
        } else {
            let g = self.c / dt;
            (g, -(g * self.v_prev))
        }
    }
}

/// Runs a transient analysis from the DC operating point at `t = 0`.
///
/// # Errors
///
/// Returns [`SimError::InvalidOptions`] for a degenerate time grid,
/// [`SimError::TranNoConvergence`] if Newton fails at some time point, or
/// propagates DC/LU errors.
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
    let asm = Assembler::new(ckt);
    let nv = ckt.num_nodes() - 1;
    // State vector starts at the operating point.
    let mut x = op.mna_vector();
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
    let mut ws = DcWorkspace::new();

    for step in 1..=steps {
        let t = step as f64 * opts.dt;
        let trap = step > 1;
        let prev: &[f64] = &v_points[v_points.len() - 1];
        let assemble = |x: &[f64], j: &mut Matrix<f64>, f: &mut [f64]| {
            asm.assemble(x, Some(t), GMIN, j, f);
            let volt = |n: Node| asm.voltage(x, n);
            for cs in &caps {
                let (geq, ieq) = cs.companion(opts.dt, trap);
                let i_now = geq * (volt(cs.p) - volt(cs.n)) + ieq;
                asm.stamp_pair(j, f, cs.p, cs.n, geq, i_now);
            }
            for e in ckt.elements() {
                let Element::Mos(m) = e else { continue };
                // The gate capacitances of the current region, integrated
                // with backward Euler against the previous time point's
                // node voltages (history through `v_points` only).
                let (a_d, a_s, ..) = eval_mos_oriented(m, volt);
                let vgs_e = match m.polarity {
                    MosPolarity::Nmos => volt(m.g) - volt(a_s),
                    MosPolarity::Pmos => volt(a_s) - volt(m.g),
                };
                let region = m.model.eval(vgs_e, 1.0, m.w, m.l, m.mult).region;
                let (cgs, cgd) = m.model.gate_caps(region, m.w, m.l, m.mult);
                for (p, n, c) in [(m.g, a_s, cgs), (m.g, a_d, cgd)] {
                    let geq = c / opts.dt;
                    let v_prev = prev[p.index()] - prev[n.index()];
                    let i_now = geq * (volt(p) - volt(n) - v_prev);
                    asm.stamp_pair(j, f, p, n, geq, i_now);
                }
            }
        };
        newton_solve(&mut x, nv, &mut ws, assemble).map_err(|e| match e {
            SimError::DcNoConvergence { .. } => SimError::TranNoConvergence { time: t },
            e => e,
        })?;
        // Commit the step: update capacitor history.
        for cs in &mut caps {
            let vc = asm.voltage(&x, cs.p) - asm.voltage(&x, cs.n);
            let (geq, ieq) = cs.companion(opts.dt, trap);
            cs.i_prev = geq * vc + ieq;
            cs.v_prev = vc;
        }
        let mut row = vec![0.0; nv + 1];
        row[1..].copy_from_slice(&x[..nv]);
        t_points.push(t);
        v_points.push(row);
    }
    Ok(TranResult {
        t: t_points,
        v: v_points,
    })
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
